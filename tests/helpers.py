"""Shared test fixtures: small random instances at O(1) scales, the true
efficiency slacks, the assembled constraint rows that bound them (the
surrogate rates included, read off the rate floors), and oracles for the
network pass (a per-pair loop), the objective in natural units, the KKT
certificate, the max-exponent-stabilized rate pass and rows, and the
dense derivatives that the solver's fused pass and derivative table
replace."""

import numpy as np

from eeopt.network import NetworkInstance, evaluate
from eeopt.scalarization import (
    ScalarizationKind,
    log_objective,
    product_ee,
    weighted_minimum,
    weighted_product,
)
from eeopt.scenario import ScenarioConfig, generate
from eeopt.solver import ConvexSubproblem
from eeopt.surrogate import LN2, build

# one scalarization of each subproblem shape, the weight endpoints included
SHAPES = (weighted_product(0.5), weighted_product(0.0), weighted_product(1.0),
          weighted_minimum(0.5), product_ee())


def paper_scale_instance():
    """4 D2D pairs and 1 cellular user over 5 blocks, pairs 10 m apart."""
    return generate(ScenarioConfig(d2d_distance=10.0), np.random.SeedSequence([1, 30]))


def random_instance(rng, n_users=2, n_blocks=2, min_rate=0.0, bandwidth=1.0):
    """A well-conditioned random instance with unit-scale parameters.

    Direct gains are boosted above the cross gains so every user has a
    usable link, which keeps rates and finite-difference checks well away
    from degenerate regimes.
    """
    n, k = n_users, n_blocks
    gain = rng.uniform(0.01, 0.3, size=(n, n, k))
    idx = np.arange(n)
    gain[idx, idx, :] = rng.uniform(0.5, 2.0, size=(n, k))
    return NetworkInstance(
        bandwidth_per_block=bandwidth,
        gain=gain,
        noise=rng.uniform(0.05, 0.5, size=(n, k)),
        amp_inefficiency=rng.uniform(1.0, 4.0, size=n),
        static_power=rng.uniform(0.2, 2.0, size=n),
        max_power=rng.uniform(0.5, 4.0, size=n),
        min_rate=np.full(n, float(min_rate)),
    )


def random_alloc(rng, instance, scale=1.0):
    """A strictly positive allocation inside the power budgets."""
    n, k = instance.n_users, instance.n_blocks
    raw = rng.uniform(0.05, 1.0, size=(n, k))
    budget = scale * instance.max_power / raw.sum(axis=1)
    return raw * budget[:, None] * rng.uniform(0.3, 0.999)


def expand(instance, alloc):
    """The surrogate expanded at alloc, from its metrics report as `run` passes it."""
    return build(instance, alloc, evaluate(instance, alloc))


def central_diff(f, x, step=1e-6):
    """Central finite-difference gradient of scalar f over a flat array."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros(x.size)
    for i in range(x.size):
        hi = x.copy().ravel()
        lo = x.copy().ravel()
        hi[i] += step
        lo[i] -= step
        grad[i] = (f(hi.reshape(x.shape)) - f(lo.reshape(x.shape))) / (2 * step)
    return grad


def rel_err(actual, expected, floor=1e-9):
    """Elementwise relative error with an absolute floor for near-zero entries."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    return np.abs(actual - expected) / np.maximum(np.abs(expected), floor)


def reference_metrics(instance, alloc):
    """(SINR (N, K), TEE, MEE, Jain index) of an allocation, from the instance's raw
    arrays by a loop over (user, block) pairs that adds each interferer's received
    power w_ji p_j^k to the noise. It calls nothing in `eeopt.network`, so the
    package's one interference kernel is checked against a second computation.
    Rates are B sum_k log1p(SINR) / ln 2, accurate at small SINRs."""
    gain, noise = instance.gain, instance.noise
    p = np.asarray(alloc, dtype=float)
    n, k = p.shape
    sinr = np.empty((n, k))
    for i in range(n):
        for b in range(k):
            interference = 0.0
            for j in range(n):
                if j != i:
                    interference += gain[j, i, b] * p[j, b]
            sinr[i, b] = gain[i, i, b] * p[i, b] / (interference + noise[i, b])
    rate = instance.bandwidth_per_block * np.log1p(sinr).sum(axis=1) / np.log(2.0)
    consumed = instance.amp_inefficiency * p.sum(axis=1) + instance.static_power
    ee = rate / consumed
    scaled = ee / ee.max() if ee.max() > 0 else np.ones(n)
    jain = float(scaled.sum() ** 2 / (n * (scaled * scaled).sum()))
    return sinr, float(rate.sum() / consumed.sum()), float(ee.min()), jain


def metrics_off_reference(report, instance, alloc):
    """The largest relative difference of a metrics report's TEE, MEE and Jain index
    from `reference_metrics` at its allocation."""
    _, tee, mee, jain = reference_metrics(instance, alloc)
    got = np.array([report.ee_total, report.ee_min, report.jain_index])
    return float(rel_err(got, [tee, mee, jain], floor=1e-300).max())


def true_psi(instance, q, v):
    """Per-user efficiency slacks of the true rates, R_i - consumed_i * 2^v_i, shape (N,)."""
    rep = evaluate(instance, np.exp2(q))
    consumed = instance.amp_inefficiency * np.exp2(q).sum(axis=1) + instance.static_power
    return rep.rate - consumed * np.exp2(v)


def true_g(instance, q, u):
    """Total-efficiency slack of the true rates, sum R_i - total power * 2^u."""
    rep = evaluate(instance, np.exp2(q))
    return float(rep.rate_total - rep.power_total * 2.0**u)


def psi_rows(model, q, v, with_grad=False):
    """The solver's psi rows at (q, v): values (N,) and Jacobian rows (N, N*K + N).

    They are rows 2N..3N-1 of the product-EE subproblem, whose variables
    are x = [q, v_1..v_N]; a scalar v gives every user that threshold.
    Rows are on the solver's 1/B scale.
    """
    sub = ConvexSubproblem(model, product_ee())
    n = sub.n_users
    c, G, _ = sub.evaluate(sub.pack(q, v=v), with_grad=with_grad)
    return c[2 * n : 3 * n], None if G is None else G[2 * n : 3 * n]


def g_row(model, q, u, with_grad=False):
    """The solver's g row at (q, u): value and Jacobian row (N*K + 1,).

    It is the last row of the weighted-product subproblem at w = 1, whose
    variables are x = [q, u]. The row is on the solver's 1/B scale.
    """
    sub = ConvexSubproblem(model, weighted_product(1.0))
    c, G, _ = sub.evaluate(sub.pack(q, u=u), with_grad=with_grad)
    return float(c[-1]), None if G is None else G[-1]


def rate_rows(model, q, with_grad=False):
    """The surrogate rates (N,) at q in bit/s and their Jacobian (N, N*K), read off the
    solver's rate-floor rows: rows N..2N-1 of every layout are (rate_i - min_rate_i) / B,
    so rate_i = B c_i + min_rate_i."""
    sub = ConvexSubproblem(model, weighted_product(1.0))
    n, bandwidth = sub.n_users, model.instance.bandwidth_per_block
    c, G, _ = sub.evaluate(sub.pack(q, u=0.0), with_grad=with_grad)
    rates = bandwidth * c[n : 2 * n] + model.instance.min_rate
    return rates, None if G is None else bandwidth * G[n : 2 * n, : sub.nq]


def log_true_objective(s, report):
    """The log-domain objective f at the allocation of a metrics report."""
    if s.kind is ScalarizationKind.PRODUCT_EE:
        return float(np.log2(report.ee).sum())
    return log_objective(s, float(np.log2(report.ee_total)), float(np.log2(report.ee_min)))


def direct_objective(s, report):
    """The objective in natural units (bit/J scale) for a metrics report."""
    w = s.weight
    if s.kind is ScalarizationKind.WEIGHTED_PRODUCT:
        return float(report.ee_total**w * report.ee_min ** (1.0 - w))
    if s.kind is ScalarizationKind.WEIGHTED_MINIMUM:
        return float(min(report.ee_total / w, report.ee_min / (1.0 - w)))
    return float(np.prod(report.ee))


def kkt_residual(sub, x, multipliers):
    """The solver's certificate recomputed at (x, multipliers) from a fresh Jacobian pass:
    max(||grad f + G'lam||_inf, max |lam_m c_m|, max(0, -c_m))."""
    lam = np.asarray(multipliers, dtype=float)
    c, G, _ = sub.evaluate(x)
    stationarity = sub.objective_vector + G.T @ lam
    return max(float(np.abs(stationarity).max()), float(np.abs(lam * c).max()),
               float(np.maximum(0.0, -c).max()))


def stabilized_rate_pass(model, q):
    """The rate pass in the log domain, stabilized by the max exponent, from the
    instance's arrays and the bound's (a, b) alone: (rates (N,), scaled (j, i, k),
    total (i, k)), with interferer j's term in user i's denominator on block k
    over 2^m_ik in `scaled`, and the sum of those plus the scaled noise in
    `total`; s_jik = scaled / total. Its rates are the surrogate-rate reference."""
    inst = model.instance
    with np.errstate(divide="ignore"):
        log_gain = np.log2(inst.gain)
    idx = np.arange(inst.n_users)
    log_direct = log_gain[idx, idx, :]
    log_gain[idx, idx, :] = -np.inf
    log_noise = np.log2(inst.noise)
    exponents = log_gain + q[:, None, :]                       # (j, i, k)
    m = np.maximum(exponents.max(axis=0), log_noise)           # (i, k)
    scaled = np.exp2(exponents - m[None, :, :])
    total = scaled.sum(axis=0) + np.exp2(log_noise - m)
    log_denom = m + np.log2(total)
    terms = model.b + model.a * log_direct + model.a * (q - log_denom)
    return inst.bandwidth_per_block * terms.sum(axis=1), scaled, total


def oracle_rows(sub, x):
    """The rows c0 + A x + R rates(q) - 2^(S theta) * (W 2^q + P) from the layout's
    own tables and the stabilized rate pass: (c, the pass, 2^q, 2^(S theta))."""
    q = sub.unpack_q(x)
    ev = stabilized_rate_pass(sub.model, q)
    exp_q = np.exp2(x[: sub.nq])
    scale = np.exp2(sub._S @ x[sub.nq :])
    c = (sub._c0 + sub._jacobian_template @ x + sub._R @ ev[0]
         - scale * (sub._W @ exp_q + sub._P))
    return c, ev, exp_q, scale


def rate_jacobian(model, ev):
    """(N, N, K): d rate_i / d q_j^k = B a_i^k (delta_ij - s_jik), from a stabilized pass."""
    rates, scaled, total = ev
    shares = scaled / total[None, :, :]
    slope = model.instance.bandwidth_per_block * model.a
    jac = np.swapaxes(-slope[None, :, :] * shares, 0, 1).copy()   # (i, j, k)
    idx = np.arange(rates.size)
    jac[idx, idx, :] += slope
    return jac


def weighted_rate_hessian(model, ev, weights):
    """sum_i weights[i] * hess(rate_i) as a dense (N*K, N*K) matrix.

    Per block k the Hessian of rate_i over the q_.^k column is
    -B a_i^k ln2 (diag(s) - s s^T) with s the interference shares.
    """
    n, k = model.instance.n_users, model.instance.n_blocks
    _, scaled, total = ev
    shares = scaled / total[None, :, :]                                    # (j, i, k)
    wa = model.instance.bandwidth_per_block * np.asarray(weights, float)[:, None] * model.a
    h = np.zeros((n, k, n, k))
    for b in range(k):
        s = shares[:, :, b]                                                # (j, i)
        h[:, b, :, b] = LN2 * (np.einsum("ji,i,li->jl", s, wa[:, b], s) - np.diag(s @ wa[:, b]))
    return h.reshape(n * k, n * k)


def dense_jacobian(sub, x):
    """The constraint Jacobian at x formed densely from the row tables and the rate Jacobian."""
    _, ev, exp_q, scale = oracle_rows(sub, x)
    consumed = sub._W @ exp_q + sub._P
    nq = sub.nq
    G = sub._jacobian_template.copy()
    G[:, :nq] += (sub._R @ rate_jacobian(sub.model, ev).reshape(sub.n_users, nq)
                  - LN2 * scale[:, None] * sub._W * exp_q)
    G[:, nq:] -= (LN2 * scale * consumed)[:, None] * sub._S
    return G


def weighted_constraint_hessian(sub, x, beta):
    """sum_m beta[m] * hess(c_m) at x formed densely: the rate Hessians weighted by R'beta,
    minus, with b = ln2^2 beta 2^(S theta), the q diagonal 2^q (W'b), the (theta, q)
    block S' diag(b) W diag(2^q) and the (theta, theta) block S' diag(b (W 2^q + P)) S."""
    _, ev, exp_q, scale = oracle_rows(sub, x)
    consumed = sub._W @ exp_q + sub._P
    nq = sub.nq
    H = np.zeros((sub.n_vars, sub.n_vars))
    H[:nq, :nq] = weighted_rate_hessian(sub.model, ev, sub._R.T @ beta)
    b = LN2 * LN2 * beta * scale
    H[:nq, :nq] -= np.diag(exp_q * (b @ sub._W))
    cross = -(sub._S.T * b) @ sub._W * exp_q
    H[nq:, :nq] = cross
    H[:nq, nq:] = cross.T
    H[nq:, nq:] = -(sub._S.T * (b * consumed)) @ sub._S
    return H
