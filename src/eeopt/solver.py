"""Log-barrier Newton solver for the concave inner subproblems.

Each subproblem maximizes a linear objective over smooth concave
inequality constraints c_m(x) >= 0 built from one surrogate model: the
powers q = log2 p and the threshold columns its scalarization needs,
under per-user power budgets, surrogate rate floors and the efficiency
rows. `ConvexSubproblem` alone turns a scalarization into that layout;
its docstring gives the column and row order.

The barrier method minimizes phi_tau(x) = -tau * f(x) - sum_m log c_m(x)
by damped Newton with backtracking, multiplying tau by a fixed factor
until the duality gap M/tau drops below the requested KKT tolerance.
Multipliers fall out of the barrier as lambda_m = 1/(tau c_m), and the
certificate reported is

    max( ||grad f + sum_m lambda_m grad c_m||_inf,
         max_m |lambda_m c_m|,
         max_m max(0, -c_m) ).

Constraints are normalized internally (power rows by the power budget,
rate-type rows by the block bandwidth) so the Newton systems stay well
conditioned when bandwidths are in the hundreds of kHz; the feasible set
is unchanged and multipliers refer to the normalized rows.

Each iterate costs one rate pass. A line-search trial point gets only a
value pass (`ConvexSubproblem.evaluate` without the Jacobian): constraint
values plus the kept rate, power and threshold terms. Once a trial is
accepted, its Jacobian and constraint Hessian are built from that kept
pass (`jacobian`, `weighted_constraint_hessian`) with index maps fixed
when the subproblem is built, never by evaluating the point again. The
barrier Hessian does not depend on tau, so the derivatives of a
centering's last point, whose step is not taken, start the next
centering; the final point's (c, G) serves the certificate and the
multiplier polish. Phase-I is one more layout of the same assembly: the
power and rate rows, plus one slack column (`ConvexSubproblem.phase_one`).

Everything here is deterministic: the same subproblem and start produce
the identical iterate sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, InfeasibleSubproblemError, ShapeError
from .scalarization import Scalarization, ScalarizationKind
from .surrogate import (
    LN2,
    SurrogateModel,
    efficiency_roots,
    rate_evaluation,
    weighted_rate_hessian,
)

__all__ = [
    "ConvexSubproblem",
    "SubproblemStatus",
    "SubproblemSolution",
    "strictly_feasible_start",
    "solve",
    "kkt_residual",
]


# Knobs of the barrier loop. A centering stops once
# decrement^2 / (2 max(1, tau)) falls below _NEWTON_TOL: that bounds the
# centering suboptimality in objective units, so the criterion stays
# meaningful when tau is large and the raw barrier value sits far outside
# double precision.
_TAU0 = 1.0
_TAU_FACTOR = 20.0
_NEWTON_TOL = 1e-9
_ARMIJO_SLOPE = 0.01
_BACKTRACK = 0.5
_MAX_NEWTON_PER_CENTER = 100
_RIDGE = 1e-10
_MIN_STEP = 1e-14
_INTERIOR_SLACK = 1e-3      # log2-units shift used by the start finder


class SubproblemStatus(Enum):
    OPTIMAL = "optimal"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SubproblemSolution:
    x: np.ndarray
    q: np.ndarray                     # (N, K)
    u: float | None                   # log2 total-EE threshold, if present
    v: float | None                   # log2 min-EE threshold (shared), if present
    rates: np.ndarray                 # (N,) surrogate rates at q, from the final pass
    objective: float
    kkt_residual: float
    newton_iterations: int
    status: SubproblemStatus
    multipliers: np.ndarray


class ConvexSubproblem:
    """One concave subproblem: a surrogate model plus the layout its scalarization induces.

    Columns, in order: q (q_ik in column i*K + k), then u, then the
    min-EE thresholds (one shared v, or v_1..v_N for the product-EE
    baseline), then t. Rows, in order: N power budgets, N rate floors,
    N efficiency slacks psi_i (where v is present), the total-efficiency
    slack g (where u is present), and, for the weighted minimum only, the
    epigraph rows u - log2 w - t and v - log2(1-w) - t. The objective is
    linear:

    * weighted product: w*u + (1-w)*v; a column with zero weight is
      dropped with its rows (u at w = 0, v at w = 1), so the barrier has
      no dead directions;
    * weighted minimum: t, under the two epigraph rows;
    * product-EE baseline: sum_i v_i.

    Phase-I (`phase_one`) is q plus one slack column, maximized under the
    power and rate rows minus the slack.
    """

    def __init__(self, model: SurrogateModel, scalarization: Scalarization):
        kind, w = scalarization.kind, scalarization.weight
        if kind is ScalarizationKind.WEIGHTED_PRODUCT:
            self._lay_out(model, u=w if w > 0.0 else None, v=1.0 - w if w < 1.0 else None)
        elif kind is ScalarizationKind.WEIGHTED_MINIMUM:
            self._lay_out(model, u=0.0, v=0.0, offsets=(-math.log2(w), -math.log2(1.0 - w)))
        else:
            self._lay_out(model, v=1.0, per_user=True)

    def phase_one(self) -> "ConvexSubproblem":
        """The start finder's problem: max s subject to (power and rate rows) - s >= 0."""
        problem = object.__new__(ConvexSubproblem)
        problem._lay_out(self.model, slack=True)
        return problem

    def _lay_out(self, model, u=None, v=None, per_user=False, offsets=None, slack=False):
        """Columns, rows, objective and constant Jacobian entries of one shape.

        `u` and `v` are the objective weights of the threshold columns, None
        where the column and its rows are absent; `per_user` gives each user
        its own v column. `offsets` adds t and the two epigraph rows, and
        `slack` a column that every row subtracts.
        """
        self.model = model
        inst = model.instance
        n, k = inst.n_users, inst.n_blocks
        self.n_users, self.n_blocks = n, k
        self.nq = n * k

        idx = self.nq
        self.u_index = self.t_index = self.slack_index = self._v_cols = None
        if u is not None:
            self.u_index = idx
            idx += 1
        if v is not None:
            # user i's threshold column; a shared v repeats its column
            self._v_cols = idx + np.arange(n) if per_user else np.full(n, idx)
            idx += n if per_user else 1
        self._v_shared = v is not None and not per_user
        if offsets is not None:
            self.t_index = idx
            idx += 1
        if slack:
            self.slack_index = idx
            idx += 1
        self.n_vars = idx
        self._epigraph_offsets = offsets

        self._g_row = 3 * n if v is not None else 2 * n
        self.n_constraints = self._g_row + (u is not None) + (2 if offsets is not None else 0)

        c = np.zeros(self.n_vars)
        if u is not None:
            c[self.u_index] = u
        if v is not None:
            c[self._v_cols] = v
        for col in (self.t_index, self.slack_index):
            if col is not None:
                c[col] = 1.0
        self.objective_vector = c

        # index maps: q_ik sits in column i*K + k and belongs to user i's power and psi rows
        self._q_cols = np.arange(self.nq)
        self._q_user = np.repeat(np.arange(n), k)
        self._psi_rows = 2 * n + np.arange(n)
        self._psi_rows_q = 2 * n + self._q_user
        if v is not None:
            self._v_cols_q = np.repeat(self._v_cols, k)
        # the Jacobian entries that do not depend on x
        G0 = np.zeros((self.n_constraints, self.n_vars))
        if offsets is not None:
            row = self._g_row + 1
            G0[row, self.u_index] = 1.0
            G0[row + 1, self._v_cols] = 1.0
            G0[row : row + 2, self.t_index] = -1.0
        if slack:
            G0[:, self.slack_index] = -1.0
        self._jacobian_template = G0

        # normalization of constraint rows
        self._power_scale = 1.0 / inst.max_power
        self._rate_scale = 1.0 / inst.bandwidth_per_block
        self._static_total = float(inst.static_power.sum())

    # -- variable packing ------------------------------------------------

    def pack(self, q: np.ndarray, u: float | None = None, v=None, t: float | None = None) -> np.ndarray:
        """The variable vector; values for columns this layout lacks are ignored.

        `v` is one threshold for every user or one per user; users that
        share a column get the smallest of theirs, the one all of them meet.
        """
        x = np.zeros(self.n_vars)
        x[: self.nq] = np.asarray(q, dtype=float).ravel()
        if self.u_index is not None:
            if u is None:
                raise DomainError("subproblem needs a total-EE threshold value")
            x[self.u_index] = u
        if self._v_cols is not None:
            if v is None:
                raise DomainError("subproblem needs a min-EE threshold value")
            x[self._v_cols] = np.inf
            np.minimum.at(x, self._v_cols, v)
        if self.t_index is not None:
            if t is None:
                raise DomainError("epigraph subproblem needs a t value")
            x[self.t_index] = t
        return x

    def unpack_q(self, x: np.ndarray) -> np.ndarray:
        return x[: self.nq].reshape(self.n_users, self.n_blocks)

    # -- constraint evaluation --------------------------------------------

    def evaluate(self, x: np.ndarray, with_grad: bool = True):
        """Normalized constraint values, optional Jacobian, and the kept pass.

        Without the Jacobian this is the value pass: one rate evaluation
        plus the power and threshold terms, no interference shares or
        derivatives. The returned pass holds what `jacobian` and
        `weighted_constraint_hessian` build the derivatives from.
        """
        inst = self.model.instance
        q = self.unpack_q(x)
        exp_q = np.exp2(q)
        row_power = exp_q.sum(axis=1)

        ev = rate_evaluation(self.model, q)
        rs = self._rate_scale

        m_parts = [1.0 - row_power * self._power_scale, (ev.rates - inst.min_rate) * rs]
        ctx = {"ev": ev, "exp_q": exp_q}

        if self._v_cols is not None:
            pow_v = np.exp2(x[self._v_cols])
            dyn_v = inst.amp_inefficiency * row_power * pow_v
            stat_v = inst.static_power * pow_v
            m_parts.append((ev.rates - dyn_v - stat_v) * rs)
            mu_exp_v = inst.amp_inefficiency[:, None] * exp_q * pow_v[:, None]
            ctx.update(dyn_v=dyn_v, stat_v=stat_v, mu_exp_v=mu_exp_v)

        if self.u_index is not None:
            pow_u = 2.0 ** x[self.u_index]
            dyn_u = inst.amp_inefficiency * row_power * pow_u
            c_g = (ev.rates.sum() - dyn_u.sum() - self._static_total * pow_u) * rs
            m_parts.append(np.array([c_g]))
            ctx.update(pow_u=pow_u, dyn_u=dyn_u,
                       mu_exp_u=inst.amp_inefficiency[:, None] * exp_q * pow_u)

        if self.t_index is not None:
            off_u, off_v = self._epigraph_offsets
            t = x[self.t_index]
            m_parts.append(
                np.array([x[self.u_index] + off_u - t, x[self._v_cols[0]] + off_v - t])
            )

        c = np.concatenate(m_parts)
        if self.slack_index is not None:
            c -= x[self.slack_index]
        if not with_grad:
            return c, None, ctx
        return c, self.jacobian(ctx), ctx

    def jacobian(self, ctx) -> np.ndarray:
        """Constraint Jacobian at the point of a kept pass."""
        n, nq = self.n_users, self.nq
        ev = ctx["ev"]
        rs = self._rate_scale
        G = self._jacobian_template.copy()
        # power rows: d/dq_ik = -ln2 * 2^q_ik / Pmax_i on own row
        G[self._q_user, self._q_cols] = (-LN2 * ctx["exp_q"] * self._power_scale[:, None]).ravel()
        jac = ev.jac.reshape(n, nq)
        jac_rs = jac * rs
        G[n : 2 * n, :nq] = jac_rs
        if self._v_cols is not None:
            G[2 * n : 3 * n, :nq] = jac_rs
            G[self._psi_rows_q, self._q_cols] -= (LN2 * ctx["mu_exp_v"] * rs).ravel()
            G[self._psi_rows, self._v_cols] = -LN2 * (ctx["dyn_v"] + ctx["stat_v"]) * rs
        if self.u_index is not None:
            row = self._g_row
            G[row, :nq] = (jac.sum(axis=0) - LN2 * ctx["mu_exp_u"].ravel()) * rs
            G[row, self.u_index] = -LN2 * (ctx["dyn_u"].sum() + self._static_total * ctx["pow_u"]) * rs
        return G

    def weighted_constraint_hessian(self, ctx, beta: np.ndarray) -> np.ndarray:
        """sum_m beta[m] * hess(c_m) over the full variable vector, from a kept pass."""
        n, nq = self.n_users, self.nq
        rs = self._rate_scale
        H = np.zeros((self.n_vars, self.n_vars))

        # curvature of the surrogate rates, shared by rate/psi/g rows
        w = beta[n : 2 * n] * rs
        if self._v_cols is not None:
            beta_psi = beta[2 * n : 3 * n]
            w = w + beta_psi * rs
        if self.u_index is not None:
            beta_g = beta[self._g_row]
            w = w + beta_g * rs
        weighted_rate_hessian(self.model, ctx["ev"], w, out=H[:nq, :nq])

        diag = -(LN2 * LN2 * beta[:n, None] * ctx["exp_q"] * self._power_scale[:, None])
        if self._v_cols is not None:
            psi = LN2 * LN2 * beta_psi[:, None] * ctx["mu_exp_v"] * rs
            diag -= psi
            cross = -psi.ravel()                                 # (q_ik, v_i)
            H[self._q_cols, self._v_cols_q] = cross
            H[self._v_cols_q, self._q_cols] = cross
            # add.at, not +=: with a shared v the index repeats and every user's term counts
            np.add.at(H, (self._v_cols, self._v_cols),
                      -LN2 * LN2 * beta_psi * (ctx["dyn_v"] + ctx["stat_v"]) * rs)
        if self.u_index is not None:
            g = LN2 * LN2 * beta_g * ctx["mu_exp_u"] * rs
            diag -= g
            cross_u = -g.ravel()
            H[:nq, self.u_index] = cross_u
            H[self.u_index, :nq] = cross_u
            H[self.u_index, self.u_index] = (
                -LN2 * LN2 * beta_g * (ctx["dyn_u"].sum() + self._static_total * ctx["pow_u"]) * rs
            )
        H[self._q_cols, self._q_cols] += diag.ravel()
        return H


# -- barrier engine -------------------------------------------------------


class _Iterate:
    """A barrier iterate: x, its constraint values and kept pass, and its derivatives.

    The barrier Hessian sum_m grad c_m grad c_m^T / c_m^2 - hess c_m / c_m
    does not depend on tau, so the derivatives of a point whose step was
    not taken serve the next centering as they are.
    """

    __slots__ = ("x", "c", "ctx", "inv_c", "G", "H")

    def __init__(self, x, c, ctx):
        self.x, self.c, self.ctx = x, c, ctx
        self.inv_c = self.G = self.H = None

    def jacobian(self, problem):
        if self.G is None:
            self.G = problem.jacobian(self.ctx)
        return self.G

    def newton_matrix(self, problem):
        if self.H is None:
            G = self.jacobian(problem)
            self.inv_c = 1.0 / self.c
            self.H = (G * (self.inv_c**2)[:, None]).T @ G
            self.H -= problem.weighted_constraint_hessian(self.ctx, self.inv_c)
        return self.H


def _newton_direction(H: np.ndarray, grad: np.ndarray):
    """Solve H d = -grad with escalating ridge until we get a descent direction.

    The ridge goes onto H's diagonal in place; the diagonal is restored
    before returning, so H is unchanged for a later centering.
    """
    diagonal = H.reshape(-1)[:: H.shape[0] + 1]
    saved = diagonal.copy()
    rhs = -grad
    try:
        for boost in (_RIDGE, _RIDGE * 1e4, _RIDGE * 1e8, 1e-2):
            np.add(saved, boost, out=diagonal)
            try:
                d = np.linalg.solve(H, rhs)
            except np.linalg.LinAlgError:
                continue
            dec_sq = -float(grad @ d)
            if dec_sq > 0 and np.isfinite(d).all():
                return d, dec_sq
        return None, 0.0
    finally:
        diagonal[...] = saved


def _barrier_value(c_obj, x, c, tau):
    return -tau * float(c_obj @ x) - float(np.log(c).sum())


def _center(problem, point, tau):
    """Damped Newton to the central point for one tau. Returns (point, iters, status).

    A line-search trial point costs one value pass; the accepted one is
    differentiated from that same pass.
    """
    c_obj = problem.objective_vector
    dec_scale = 2.0 * max(1.0, tau)
    for it in range(_MAX_NEWTON_PER_CENTER):
        H = point.newton_matrix(problem)
        x, c, G = point.x, point.c, point.G
        grad = -tau * c_obj - G.T @ point.inv_c
        d, dec_sq = _newton_direction(H, grad)
        if d is None:
            return point, it, SubproblemStatus.NUMERICAL_FAILURE
        if dec_sq / dec_scale <= _NEWTON_TOL:
            return point, it, SubproblemStatus.OPTIMAL
        phi0 = _barrier_value(c_obj, x, c, tau)
        # fraction-to-boundary: start below the step that would cross c = 0
        slopes = G @ d
        blocking = slopes < 0
        step = 1.0
        if blocking.any():
            step = min(1.0, float((-0.99 * c[blocking] / slopes[blocking]).min()))
        while True:
            x_new = x + step * d
            c_new, _, ctx_new = problem.evaluate(x_new, with_grad=False)
            if (c_new > 0).all() and np.isfinite(c_new).all():
                phi_new = _barrier_value(c_obj, x_new, c_new, tau)
                if phi_new <= phi0 - _ARMIJO_SLOPE * step * dec_sq:
                    break
            step *= _BACKTRACK
            if step < _MIN_STEP:
                # stagnation at machine precision: accept if the decrement is tiny
                if dec_sq / dec_scale <= _NEWTON_TOL * 100:
                    return point, it, SubproblemStatus.OPTIMAL
                return point, it, SubproblemStatus.NUMERICAL_FAILURE
        if np.array_equal(x_new, x):
            return point, it, SubproblemStatus.OPTIMAL
        point = _Iterate(x_new, c_new, ctx_new)
    return point, _MAX_NEWTON_PER_CENTER, SubproblemStatus.MAX_ITERATIONS


def _barrier_minimize(problem, start, tol):
    """Run the full barrier loop; returns (final _Iterate, multipliers, tau, iterations, status).

    The gap is driven one decade below tol so the complementary-slackness
    terms 1/tau certify comfortably inside the requested tolerance. Raises
    DomainError when the start is not strictly feasible. Overflow of 2^q
    at trial points far outside the domain is expected and reads as an
    infeasible trial, so it is silenced for the whole solve.
    """
    x = np.array(start, dtype=float)
    m = problem.n_constraints
    tau = _TAU0
    total = 0
    status = SubproblemStatus.OPTIMAL
    with np.errstate(over="ignore"):
        c, _, ctx = problem.evaluate(x, with_grad=False)
        if np.any(c <= 0):
            raise DomainError("start point is not strictly feasible")
        point = _Iterate(x, c, ctx)
        if not np.all(np.isfinite(c)):
            status = SubproblemStatus.NUMERICAL_FAILURE
        while status is SubproblemStatus.OPTIMAL:
            point, iters, status = _center(problem, point, tau)
            total += iters
            if status is not SubproblemStatus.OPTIMAL or m / tau <= 0.1 * tol:
                break
            tau *= _TAU_FACTOR
    lam = 1.0 / (tau * point.c)
    return point, lam, tau, total, status


def _certificate(objective_vector, c, G, lam) -> float:
    stationarity = float(np.abs(objective_vector + G.T @ lam).max())
    comp_slack = float(np.abs(lam * c).max())
    primal = float(np.maximum(0.0, -c).max())
    return max(stationarity, comp_slack, primal)


def kkt_residual(sub, x: np.ndarray, multipliers: np.ndarray) -> float:
    """Certificate: stationarity, complementary slackness and primal violation."""
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != (sub.n_constraints,):
        raise ShapeError("multiplier vector has the wrong length")
    if np.any(lam < 0):
        raise DomainError("multipliers must be nonnegative")
    c, G, _ = sub.evaluate(x)
    return _certificate(sub.objective_vector, c, G, lam)


def _polish_multipliers(objective_vector, c, G, tau):
    """Least-squares multipliers on the near-active set.

    The barrier multipliers carry an O(1/tau) bias on every row, which
    caps the stationarity certificate; refitting the active rows removes
    that bias while keeping |lambda_m c_m| at the 1/tau level.
    """
    lam = np.zeros_like(c)
    active = c <= np.sqrt(max(float(c.max()), 1.0) / tau)
    if not np.any(active):
        return lam
    sol, *_ = np.linalg.lstsq(G[active].T, -objective_vector, rcond=None)
    lam[active] = np.maximum(sol, 0.0)
    return lam


# -- strictly feasible start ------------------------------------------------


def strictly_feasible_start(sub: ConvexSubproblem, hint_q: np.ndarray) -> np.ndarray:
    """Move a (weakly) feasible q strictly inside the subproblem's domain.

    Power rows are pulled in multiplicatively, the threshold variables are
    set a fixed log2 slack below their exact roots, and if the rate floors
    cannot be made strict this way a phase-I slack maximization runs; a
    nonpositive phase-I optimum means the floors are unattainable under
    the current minorant and raises InfeasibleSubproblemError.
    """
    delta = _INTERIOR_SLACK
    inst = sub.model.instance
    q = np.asarray(hint_q, dtype=float).reshape(sub.n_users, sub.n_blocks).copy()

    row_power = np.exp2(q).sum(axis=1)
    budget = inst.max_power
    shrink = np.minimum(1.0, (1.0 - delta) * budget / row_power)
    q += np.log2(shrink)[:, None]

    rates = rate_evaluation(sub.model, q).rates
    rate_slack = (rates - inst.min_rate) * sub._rate_scale
    if rate_slack.min() <= 1e-9:
        phase1 = sub.phase_one()
        c0, _, _ = phase1.evaluate(np.append(q.ravel(), 0.0), with_grad=False)
        x0 = np.append(q.ravel(), float(c0.min()) - 1.0)
        end, _, _, _, pstatus = _barrier_minimize(phase1, x0, 1e-6)
        px = end.x
        s_star = px[-1]
        if pstatus is not SubproblemStatus.OPTIMAL or s_star <= 1e-12:
            raise InfeasibleSubproblemError(
                "no strictly interior point: rate floors unattainable under the "
                f"current minorant (max-min slack {s_star:.3e})"
            )
        q = px[: sub.nq].reshape(sub.n_users, sub.n_blocks)
        rates = end.ctx["ev"].rates

    u_root, v_roots = efficiency_roots(inst, q, rates)
    u, v = u_root - delta, v_roots - delta
    t = None
    if sub.t_index is not None:
        off_u, off_v = sub._epigraph_offsets
        t = min(u + off_u, float(v.min()) + off_v) - delta
    x = sub.pack(q, u=u, v=v, t=t)

    c, _, _ = sub.evaluate(x, with_grad=False)
    if np.any(c <= 0) or not np.all(np.isfinite(c)):
        raise InfeasibleSubproblemError("failed to construct a strictly interior point")
    return x


def solve(sub: ConvexSubproblem, start: np.ndarray, tol: float = 1e-8) -> SubproblemSolution:
    """Barrier-solve one subproblem from a strictly feasible start."""
    start = np.asarray(start, dtype=float)
    if start.shape != (sub.n_vars,):
        raise ShapeError(f"start has shape {start.shape}, expected ({sub.n_vars},)")

    end, lam, tau, iterations, status = _barrier_minimize(sub, start, tol)
    # one (c, G) at the final point serves both certificates and the polish
    x, c, G = end.x, end.c, end.jacobian(sub)
    lam = np.maximum(lam, 0.0)
    residual = _certificate(sub.objective_vector, c, G, lam)
    polished = _polish_multipliers(sub.objective_vector, c, G, tau)
    polished_residual = _certificate(sub.objective_vector, c, G, polished)
    if polished_residual < residual:
        lam, residual = polished, polished_residual
    q = sub.unpack_q(x)
    u = float(x[sub.u_index]) if sub.u_index is not None else None
    v = float(x[sub._v_cols[0]]) if sub._v_shared else None
    return SubproblemSolution(
        x=x,
        q=q,
        u=u,
        v=v,
        rates=end.ctx["ev"].rates,
        objective=float(sub.objective_vector @ x),
        kkt_residual=residual,
        newton_iterations=iterations,
        status=status,
        multipliers=lam,
    )
