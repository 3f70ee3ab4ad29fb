"""Replay every committed reference study and compare it with what is committed.

Run from the root of a checkout:

    python reference/replay.py [reference/pareto ...]

With no argument it takes every directory under `reference/` that holds a
`record.yaml`. Each record is fed back to the CLI with its tables written
into a temporary directory. Then every committed table (`*.csv`) must equal
its replay byte for byte, and the committed record must equal the replayed
one but for `output.directory`. Tables the replay writes and the directory
does not hold, such as `trajectory.csv`, are not compared. Prints one line
per study and exits 1 on any mismatch, 0 otherwise.
"""

import difflib
import sys
import tempfile
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from eeopt.cli import main  # noqa: E402


def replay(study: Path) -> list[str]:
    """The mismatches between a committed study and its replay."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        code = main([str(study / "record.yaml"), "-o", str(out)])
        if not (out / "record.yaml").exists():
            return [f"the replay exited {code} without a record"]
        problems = [f"{table.name} differs" for table in sorted(study.glob("*.csv"))
                    if not (out / table.name).exists()
                    or table.read_bytes() != (out / table.name).read_bytes()]
        committed = (study / "record.yaml").read_text()
        directory = yaml.safe_load(committed)["config"]["output"]["directory"]
        replayed = (out / "record.yaml").read_text().replace(str(out), directory)
        diff = list(difflib.unified_diff(committed.splitlines(keepends=True),
                                         replayed.splitlines(keepends=True),
                                         "committed", "replayed"))
        if diff:
            problems.append("record.yaml differs:\n" + "".join(diff))
        return problems


def run(argv: list[str]) -> int:
    studies = [Path(a) for a in argv] or sorted(p.parent for p in HERE.glob("*/record.yaml"))
    failed = False
    for study in studies:
        problems = replay(study)
        failed = failed or bool(problems)
        print(f"{study.name}: {'; '.join(problems) if problems else 'identical'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
