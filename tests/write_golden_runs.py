"""Write `golden_runs.npz`, the runs `test_golden_runs.py` compares every gated
benchmark op against. Run it from the repository root after a change that
means to move numbers, and state in the change which ops moved:

    PYTHONPATH=src python tests/write_golden_runs.py
"""

import numpy as np

from test_golden_runs import GOLDEN, WORKLOADS, digest, records

if __name__ == "__main__":
    arrays = {}
    for name in WORKLOADS:
        rec = records(name)
        arrays.update({f"{name}.{field}": values for field, values in rec.items()})
        print(f"{name}: {len(rec['status'])} ops, sha256 {digest(rec)[:8]}")
    np.savez_compressed(GOLDEN, **arrays)
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)")
