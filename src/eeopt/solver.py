"""Primal-dual interior-point solver for the concave inner subproblems.

Each subproblem maximizes a linear objective over smooth concave
inequality constraints c_m(x) >= 0 built from one surrogate model: the
powers q = log2 p and the threshold columns its scalarization needs,
under per-user power budgets, surrogate rate floors and the efficiency
rows. `ConvexSubproblem` alone turns a scalarization into that layout;
its docstring gives the column and row order.

The solver runs one Newton iteration on the perturbed KKT system of
c(x) - s = 0, s > 0 (Nocedal & Wright, sections 19.2-19.3): primal x,
slacks s and multipliers lambda move together, and a step eliminates ds
and dlambda to solve the reduced system

    (G' diag(lambda/s) G - sum_m lambda_m hess c_m) dx = rhs

with G the constraint Jacobian. The barrier parameter mu falls
monotonically, and only once the iterate is close to the central point
of the current mu. The slacks make any start with c >= 0 legal, so the
loop starts at the expansion point with every threshold at its exact
root, where the surrogate is tight. A step goes at most 99.5% of the way
to the boundary of s or lambda, and is halved while it would grow the
primal infeasibility ||c(x) - s||_1 more than fivefold and past 1e-3.
The loop stops when

    max( ||grad f + sum_m lambda_m grad c_m||_inf,
         max_m |lambda_m c_m|,
         max_m max(0, -c_m) )  <=  tol   and   s'lambda <= tol / 10,

so OPTIMAL always means certified. A subproblem that stops short
returns its best iterate whose rows are violated by at most tol.

Constraints are normalized internally (power rows by the power budget,
rate-type rows by the block bandwidth) so the Newton systems stay well
conditioned when bandwidths are in the hundreds of kHz; the feasible set
is unchanged and multipliers refer to the normalized rows.

Each iterate costs one rate pass, and the start's pass serves both its
threshold roots and its rows. A line-search trial point gets only a
value pass (`ConvexSubproblem.evaluate` without the Jacobian): constraint
values plus the kept rate, power and threshold terms. Once a trial is
accepted, its Jacobian and constraint Hessian are built from that kept
pass (`jacobian`, `weighted_constraint_hessian`) with index maps fixed
when the subproblem is built, never by evaluating the point again.

Everything here is deterministic: the same subproblem produces the
identical iterate sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ShapeError
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
    "solve",
    "kkt_residual",
]


# Knobs of the interior-point loop. The barrier parameter mu is held while
# the KKT error of the barrier problem exceeds _KAPPA * mu, then cut to
# min(_MU_FACTOR * mu, mu ** _MU_POWER), down to a floor that puts the gap
# s'lam below the stopping test. A trial step is kept when its primal
# infeasibility ||c(x) - s||_1 is at most _GROWTH times the current one, or
# below _SMALL; otherwise the step is halved.
_MAX_NEWTON = 100
_MU0 = 0.1
_MU_FACTOR = 0.2
_MU_POWER = 1.5
_KAPPA = 10.0
_TO_BOUNDARY = 0.995
_GROWTH = 5.0
_SMALL = 1e-3
_BACKTRACK = 0.5
_MIN_STEP = 1e-10
_RIDGE = 1e-10


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
      dropped with its rows (u at w = 0, v at w = 1), so the Newton matrix
      has no dead directions;
    * weighted minimum: t, under the two epigraph rows;
    * product-EE baseline: sum_i v_i.
    """

    def __init__(self, model: SurrogateModel, scalarization: Scalarization):
        kind, w = scalarization.kind, scalarization.weight
        if kind is ScalarizationKind.WEIGHTED_PRODUCT:
            self._lay_out(model, u=w if w > 0.0 else None, v=1.0 - w if w < 1.0 else None)
        elif kind is ScalarizationKind.WEIGHTED_MINIMUM:
            self._lay_out(model, u=0.0, v=0.0, offsets=(-math.log2(w), -math.log2(1.0 - w)))
        else:
            self._lay_out(model, v=1.0, per_user=True)

    def _lay_out(self, model, u=None, v=None, per_user=False, offsets=None):
        """Columns, rows, objective and constant Jacobian entries of one shape.

        `u` and `v` are the objective weights of the threshold columns, None
        where the column and its rows are absent; `per_user` gives each user
        its own v column. `offsets` adds t and the two epigraph rows.
        """
        self.model = model
        inst = model.instance
        n, k = inst.n_users, inst.n_blocks
        self.n_users, self.n_blocks = n, k
        self.nq = n * k

        idx = self.nq
        self.u_index = self.t_index = self._v_cols = None
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
        self.n_vars = idx
        self._epigraph_offsets = offsets

        self._g_row = 3 * n if v is not None else 2 * n
        self.n_constraints = self._g_row + (u is not None) + (2 if offsets is not None else 0)

        c = np.zeros(self.n_vars)
        if u is not None:
            c[self.u_index] = u
        if v is not None:
            c[self._v_cols] = v
        if offsets is not None:
            c[self.t_index] = 1.0
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
        c, ctx = self._rows(x, rate_evaluation(self.model, self.unpack_q(x)))
        return c, (self.jacobian(ctx) if with_grad else None), ctx

    def start(self):
        """The expansion point with each threshold at its exact root: (x, c, kept pass).

        The surrogate is tight at the expansion point, so every row is
        nonnegative there and the threshold rows that bind are zero. The
        one rate pass serves both the roots and the rows.
        """
        q = self.model.expansion_q
        ev = rate_evaluation(self.model, q)
        u, v = efficiency_roots(self.model.instance, q, ev.rates)
        t = None
        if self.t_index is not None:
            off_u, off_v = self._epigraph_offsets
            t = min(u + off_u, float(v.min()) + off_v)
        x = self.pack(q, u=u, v=v, t=t)
        return (x, *self._rows(x, ev))

    def _rows(self, x: np.ndarray, ev):
        """Constraint values at x from the rate pass `ev` at x's q, and the kept pass."""
        inst = self.model.instance
        exp_q = np.exp2(self.unpack_q(x))
        row_power = exp_q.sum(axis=1)
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

        return np.concatenate(m_parts), ctx

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


# -- primal-dual interior point ---------------------------------------------


def _newton_direction(M: np.ndarray, rhs: np.ndarray):
    """Solve M d = rhs, retrying with an escalating ridge on M's diagonal; None if all fail."""
    diagonal = M.reshape(-1)[:: M.shape[0] + 1]
    saved = diagonal.copy()
    for boost in (_RIDGE, _RIDGE * 1e4, _RIDGE * 1e8, 1e-2):
        np.add(saved, boost, out=diagonal)
        try:
            d = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if np.isfinite(d).all():
            return d
    return None


def _to_boundary(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest step in (0, 1] that keeps v + step * dv above (1 - _TO_BOUNDARY) v."""
    shrinking = dv < 0
    if not shrinking.any():
        return 1.0
    return min(1.0, _TO_BOUNDARY * float((-v[shrinking] / dv[shrinking]).min()))


def _certificate(stationarity: np.ndarray, c: np.ndarray, lam: np.ndarray) -> float:
    """max(||grad f + G'lam||_inf, max |lam_m c_m|, max(0, -c_m)), from grad f + G'lam."""
    return max(float(np.abs(stationarity).max()), float(np.abs(lam * c).max()),
               float(np.maximum(0.0, -c).max()))


def kkt_residual(sub, x: np.ndarray, multipliers: np.ndarray) -> float:
    """Certificate: stationarity, complementary slackness and primal violation."""
    lam = np.asarray(multipliers, dtype=float)
    if lam.shape != (sub.n_constraints,):
        raise ShapeError("multiplier vector has the wrong length")
    if np.any(lam < 0):
        raise DomainError("multipliers must be nonnegative")
    c, G, _ = sub.evaluate(x)
    return _certificate(sub.objective_vector + G.T @ lam, c, lam)


def _interior_point(problem, tol: float):
    """Primal-dual Newton from `problem.start()` until the KKT certificate meets tol.

    Returns (x, kept pass, multipliers, certificate, Newton steps, status).
    A problem that stops short of the certificate returns the start or, if
    one beats it, its best iterate whose rows are violated by at most tol.
    """
    c_obj = problem.objective_vector
    m = problem.n_constraints
    mu, mu_floor = _MU0, 0.01 * tol / m
    status = SubproblemStatus.MAX_ITERATIONS
    with np.errstate(over="ignore", invalid="ignore"):
        x, c, ctx = problem.start()
        s = np.maximum(c, 1.0)
        lam = np.ones(m)
        best = None
        for it in range(_MAX_NEWTON + 1):
            G = problem.jacobian(ctx)
            r_d, r_p = c_obj + G.T @ lam, c - s
            residual = _certificate(r_d, c, lam)
            if residual <= tol and s @ lam <= 0.1 * tol:
                status = SubproblemStatus.OPTIMAL
                best = (x, ctx, lam, residual)
                break
            if best is None or (-c.min() <= tol and c_obj @ x > c_obj @ best[0]):
                best = (x, ctx, lam, residual)
            if it == _MAX_NEWTON:
                break
            kkt = max(float(np.abs(r_d).max()), float(np.abs(r_p).max()))
            while mu > mu_floor and max(kkt, float(np.abs(s * lam - mu).max())) <= _KAPPA * mu:
                mu = max(mu_floor, min(_MU_FACTOR * mu, mu**_MU_POWER))

            # the reduced Newton system G' diag(lam/s) G - sum_m lam_m hess c_m
            M = (G * (lam / s)[:, None]).T @ G
            M -= problem.weighted_constraint_hessian(ctx, lam)
            dx = _newton_direction(M, c_obj + G.T @ ((mu - lam * r_p) / s))
            if dx is None:
                status = SubproblemStatus.NUMERICAL_FAILURE
                break
            ds = G @ dx + r_p
            dlam = mu / s - lam - lam * ds / s
            step = min(_to_boundary(s, ds), _to_boundary(lam, dlam))
            allowed = max(_GROWTH * float(np.abs(r_p).sum()), _SMALL)
            while step >= _MIN_STEP:
                x_new = x + step * dx
                c_new, _, ctx_new = problem.evaluate(x_new, with_grad=False)
                if np.abs(c_new - s - step * ds).sum() <= allowed:   # False on inf or nan
                    break
                step *= _BACKTRACK
            else:
                status = SubproblemStatus.NUMERICAL_FAILURE
                break
            x, c, ctx = x_new, c_new, ctx_new
            s = s + step * ds
            lam = lam + step * dlam
    return (*best, it, status)


def solve(sub: ConvexSubproblem, tol: float = 1e-8) -> SubproblemSolution:
    """Solve one subproblem from its start; OPTIMAL means the certificate is within tol."""
    x, ctx, lam, residual, iterations, status = _interior_point(sub, tol)
    u = float(x[sub.u_index]) if sub.u_index is not None else None
    v = float(x[sub._v_cols[0]]) if sub._v_shared else None
    return SubproblemSolution(
        x=x,
        q=sub.unpack_q(x),
        u=u,
        v=v,
        rates=ctx["ev"].rates,
        objective=float(sub.objective_vector @ x),
        kkt_residual=residual,
        newton_iterations=iterations,
        status=status,
        multipliers=lam,
    )
