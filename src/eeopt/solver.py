"""Primal-dual interior-point solver for the concave inner subproblems.

Each subproblem maximizes a linear objective over smooth concave
inequality constraints c_m(x) >= 0 built from one surrogate model: the
powers q = log2 p and the threshold columns theta its scalarization
needs, under per-user power budgets, surrogate rate floors and the
efficiency rows. Every row has the one form

    c = c0 + A x + R rates(q) - 2^(S theta) * (W 2^q + P)

`ConvexSubproblem` alone turns a scalarization into that layout, as the
tables c0, A, R, W, P and S built once per subproblem; its docstring
gives the column and row order and the table meanings. Values, Jacobian
and constraint Hessian are then the same few array operations for every
layout.

The solver runs one Newton iteration on the perturbed KKT system of
c(x) - s = 0, s > 0 (Nocedal & Wright, sections 19.2-19.3): primal x,
slacks s and multipliers lambda move together, and a step eliminates ds
and dlambda to solve the reduced system

    (G' diag(lambda/s) G - sum_m lambda_m hess c_m) dx = rhs

with G the constraint Jacobian. Each step is a Mehrotra
predictor-corrector (section 14.2) on one solve of that system: its
first right-hand side gives the affine direction, whose full step to the
boundary predicts the gap mu_aff; the others give the response to each
row's centering target, so the corrector costs no second solve. The
centering weight is sigma = (mu_aff / mu)^2, raised where the primal
infeasibility is large next to the gap mu = s'lambda / m. The slacks make
any start with c >= 0 legal, so the loop starts at the expansion point
with every threshold at its exact root, where the surrogate is tight,
and lambda either at 1 (cold) or at a previous subproblem's multipliers
(warm). A step goes at most 99.5% of the way to the boundary of s or
lambda, moves no variable by more than 4 (a factor of 16 in power or
efficiency), and is halved while it would grow the primal infeasibility
||c(x) - s||_1 more than fivefold and past 1e-3. The loop stops when

    max( ||grad f + sum_m lambda_m grad c_m||_inf,
         max_m |lambda_m c_m|,
         max_m max(0, -c_m) )  <=  tol   and   s'lambda <= tol / 10,

so OPTIMAL always means certified. A subproblem that stops short
returns its best iterate whose rows are violated by at most tol.

Given `min_gain`, the loop may also stop early, as ASCENT, at an iterate
x after the start whose rows hold within tol and whose objective gain
g = c_obj'x - c_obj'x_start is at least 2 min_gain, once its certificate
and s'lambda are both at most g / 10. That iterate is feasible and beats
the expansion point, which is all the outer loop's minorize-maximize
ascent argument needs (Sun, Babu & Palomar, IEEE TSP 2017): the start
sits at the expansion point p_{l-1} with its thresholds at their roots,
where the surrogate is tight, so its objective is the true f(p_{l-1});
the surrogate minorizes f, so the outer loop's trajectory value
f_l = f(p_l) is at least the surrogate objective at the returned point,
which is at least f(p_{l-1}) + 2 min_gain. The outer loop sets min_gain
so that such a gain always earns another outer iteration, whose
subproblem is solved in turn.

Constraints are normalized internally (power rows by the power budget,
rate-type rows by the block bandwidth) so the Newton systems stay well
conditioned when bandwidths are in the hundreds of kHz; the feasible set
is unchanged and multipliers refer to the normalized rows.

Each iterate costs one rate pass, and the start's pass serves both its
threshold roots and its rows. A line-search trial point gets only a
value pass (`ConvexSubproblem.evaluate` without the Jacobian): constraint
values plus the kept rate, power and threshold terms. Once a trial is
accepted, its Jacobian and constraint Hessian are built from that kept
pass (`jacobian`, `weighted_constraint_hessian`) and the row tables,
never by evaluating the point again.

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
]


# Knobs of the interior-point loop. The centering weight sigma is at least
# _THETA * ||c(x) - s||_inf / mu, so the gap s'lam cannot run ahead of the
# primal infeasibility. A step goes at most _TO_BOUNDARY of the way to the
# boundary of (s, lam) and moves no variable, all of them log2 quantities,
# by more than _MAX_MOVE. A trial step is kept when its primal
# infeasibility ||c(x) - s||_1 is at most _GROWTH times the current one, or
# below _SMALL; otherwise the step is halved.
_MAX_NEWTON = 100
_THETA = 1e-3
_TO_BOUNDARY = 0.995
_MAX_MOVE = 4.0
_GROWTH = 5.0
_SMALL = 1e-3
_BACKTRACK = 0.5
_MIN_STEP = 1e-10
_RIDGE = 1e-10
# An ASCENT stop needs the certificate and s'lam within this share of the gain.
_ASCENT_SLACK = 0.1


class SubproblemStatus(Enum):
    OPTIMAL = "optimal"
    ASCENT = "ascent"                 # stopped early on a feasible gain of at least 2 min_gain
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SubproblemSolution:
    x: np.ndarray                     # the layout's variables; thresholds at its threshold columns
    q: np.ndarray                     # (N, K)
    kkt_residual: float
    newton_iterations: int
    status: SubproblemStatus
    multipliers: np.ndarray


class ConvexSubproblem:
    """One concave subproblem: a surrogate model plus the layout its scalarization induces.

    Columns, in order: q (q_ik in column i*K + k), then the columns theta:
    u, the min-EE thresholds (one shared v, or v_1..v_N for the product-EE
    baseline), and t. Rows, in order: N power budgets, N rate floors, N
    efficiency slacks psi_i (where v is present), the total-efficiency
    slack g (where u is present), and, for the weighted minimum only, the
    epigraph rows u - log2 w - t and v - log2(1-w) - t. Every row has the
    one form

        c = c0 + A x + R rates(q) - 2^(S theta) * (W 2^q + P)

    with the tables built once here (attributes `_c0`, `_jacobian_template`
    for A, `_R`, `_W`, `_P` and `_S`):

    * c0 (m,): 1 on the power rows, -min_rate / B on the floors, the
      epigraph offsets -log2 w and -log2(1-w);
    * A (m, n_vars): the constant Jacobian, nonzero on the epigraph rows;
    * R (m, N): which rates enter each row, scaled by 1/B;
    * W (m, NK) and P (m,): each row's consumed-power weights on 2^q and
      its static power, over the budget on the power rows and over B on
      psi and g;
    * S (m, n_vars - NK): at most one 1 per row, on the threshold that
      scales the row's power term; a shared v is a repeated column.

    So a power row is 1 - sum_k 2^q_ik / Pmax_i and a floor
    (rate_i - min_rate_i) / B, both with S theta = 0, and psi_i and g are
    the surrogate slacks of `eeopt.surrogate` over B. The objective is
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
        """Columns, objective and row tables of one shape.

        `u` and `v` are the objective weights of the threshold columns, None
        where the column and its rows are absent; `per_user` gives each user
        its own v column. `offsets` adds t and the two epigraph rows.
        """
        self.model = model
        inst = model.instance
        n, k = inst.n_users, inst.n_blocks
        self.n_users, self.n_blocks = n, k
        self.nq = nq = n * k

        idx = nq
        self.u_index = self.t_index = self._v_cols = None
        if u is not None:
            self.u_index = idx
            idx += 1
        if v is not None:
            # user i's threshold column; a shared v repeats its column
            self._v_cols = idx + np.arange(n) if per_user else np.full(n, idx)
            idx += n if per_user else 1
        if offsets is not None:
            self.t_index = idx
            idx += 1
        self.n_vars = idx

        self._g_row = 3 * n if v is not None else 2 * n
        m = self._g_row + (u is not None) + (2 if offsets is not None else 0)
        self.n_constraints = m

        # the objective and the row tables; power rows are normalized by the
        # budget and the rate-type rows by the block bandwidth B
        own_q = np.repeat(np.eye(n), k, axis=1)            # (N, NK): user i's q columns
        per_b = 1.0 / inst.bandwidth_per_block
        obj, c0, A = np.zeros(self.n_vars), np.zeros(m), np.zeros((m, self.n_vars))
        R, W, P = np.zeros((m, n)), np.zeros((m, nq)), np.zeros(m)
        S = np.zeros((m, self.n_vars - nq))
        c0[:n] = 1.0
        W[:n] = own_q / inst.max_power[:, None]
        c0[n : 2 * n] = -inst.min_rate * per_b
        R[n : 2 * n] = np.eye(n) * per_b
        if v is not None:
            obj[self._v_cols] = v
            R[2 * n : 3 * n] = np.eye(n) * per_b
            W[2 * n : 3 * n] = own_q * (inst.amp_inefficiency * per_b)[:, None]
            P[2 * n : 3 * n] = inst.static_power * per_b
            S[2 * n + np.arange(n), self._v_cols - nq] = 1.0
        if u is not None:
            g = self._g_row
            obj[self.u_index] = u
            R[g] = per_b
            W[g] = np.repeat(inst.amp_inefficiency * per_b, k)
            P[g] = inst.static_power.sum() * per_b
            S[g, self.u_index - nq] = 1.0
        if offsets is not None:
            rows = [self._g_row + 1, self._g_row + 2]
            obj[self.t_index] = 1.0
            c0[rows] = offsets
            A[rows, [self.u_index, self._v_cols[0]]] = 1.0
            A[rows, self.t_index] = -1.0
        self.objective_vector = obj
        self._c0, self._jacobian_template, self._R, self._W, self._P, self._S = c0, A, R, W, P, S

    # -- variable packing ------------------------------------------------

    def pack(self, q: np.ndarray, u: float | None = None, v=None, t: float | None = None) -> np.ndarray:
        """The variable vector; values for columns this layout lacks are ignored.

        `v` is one threshold for every user or one per user; users that
        share a column get the smallest of theirs, the one all of them meet.
        """
        x = np.zeros(self.n_vars)
        x[: self.nq] = np.asarray(q, dtype=float).ravel()
        if self.u_index is not None:
            x[self.u_index] = u
        if self._v_cols is not None:
            x[self._v_cols] = np.inf
            np.minimum.at(x, self._v_cols, v)
        if self.t_index is not None:
            x[self.t_index] = t
        return x

    def unpack_q(self, x: np.ndarray) -> np.ndarray:
        return x[: self.nq].reshape(self.n_users, self.n_blocks)

    # -- constraint evaluation --------------------------------------------

    def evaluate(self, x: np.ndarray, with_grad: bool = True):
        """Normalized constraint values, optional Jacobian, and the kept pass.

        Without the Jacobian this is the value pass: one rate evaluation
        plus the power and threshold terms, no interference shares or
        derivatives. The kept pass (rate pass, 2^q, 2^(S theta),
        W 2^q + P) holds what `jacobian` and `weighted_constraint_hessian`
        build the derivatives from.
        """
        c, kept = self._rows(x, rate_evaluation(self.model, self.unpack_q(x)))
        return c, (self.jacobian(kept) if with_grad else None), kept

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
            off_u, off_v = self._c0[-2:]
            t = min(u + off_u, float(v.min()) + off_v)
        x = self.pack(q, u=u, v=v, t=t)
        return (x, *self._rows(x, ev))

    def _rows(self, x: np.ndarray, ev):
        """Constraint values at x from the rate pass `ev` at x's q, and the kept pass."""
        exp_q = np.exp2(x[: self.nq])
        scale = np.exp2(self._S @ x[self.nq :])
        drawn = self._W @ exp_q
        c = (self._c0 + self._jacobian_template @ x + self._R @ ev.rates
             - (drawn * scale + self._P * scale))
        return c, (ev, exp_q, scale, drawn + self._P)

    def jacobian(self, kept) -> np.ndarray:
        """Constraint Jacobian at the point of a kept pass."""
        ev, exp_q, scale, consumed = kept
        nq = self.nq
        G = self._jacobian_template.copy()
        G[:, :nq] += (self._R @ ev.jac.reshape(self.n_users, nq)
                      - LN2 * scale[:, None] * self._W * exp_q)
        G[:, nq:] -= (LN2 * scale * consumed)[:, None] * self._S
        return G

    def weighted_constraint_hessian(self, kept, beta: np.ndarray) -> np.ndarray:
        """sum_m beta[m] * hess(c_m) over the full variable vector, from a kept pass.

        The rates contribute the rate Hessian weighted by R'beta. With
        b = ln2^2 * beta * 2^(S theta), the power terms subtract the q
        diagonal 2^q * (W'b), the (theta, q) block S' diag(b) W diag(2^q)
        and the (theta, theta) block S' diag(b * (W 2^q + P)) S.
        """
        ev, exp_q, scale, consumed = kept
        nq = self.nq
        H = np.zeros((self.n_vars, self.n_vars))
        weighted_rate_hessian(self.model, ev, self._R.T @ beta, out=H[:nq, :nq])
        b = LN2 * LN2 * beta * scale
        q_diagonal = np.einsum("ii->i", H[:nq, :nq])       # a writable view
        q_diagonal -= exp_q * (b @ self._W)
        cross = -(self._S.T * b) @ self._W * exp_q
        H[nq:, :nq] = cross
        H[:nq, nq:] = cross.T
        H[nq:, nq:] = -(self._S.T * (b * consumed)) @ self._S
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


def _to_boundary(v: np.ndarray, dv: np.ndarray, fraction: float = _TO_BOUNDARY) -> float:
    """Largest step in (0, 1] that keeps v + step * dv above (1 - fraction) v, for v > 0."""
    fastest = float((dv / v).min())        # the steepest relative decrease sets the step
    return 1.0 if fastest >= 0.0 else min(1.0, -fraction / fastest)


def _certificate(stationarity: np.ndarray, c: np.ndarray, lam: np.ndarray) -> float:
    """max(||grad f + G'lam||_inf, max |lam_m c_m|, max(0, -c_m)), from grad f + G'lam."""
    return max(float(np.abs(stationarity).max()), float(np.abs(lam * c).max()),
               float(np.maximum(0.0, -c).max()))


def _interior_point(problem, tol: float, multipliers=None, min_gain=None):
    """Primal-dual Newton from `problem.start()` until the KKT certificate meets tol.

    `multipliers`, when given, warm-start lambda and must come from a
    subproblem of the same layout; otherwise the start is cold. With
    `min_gain`, an iterate after the start may end the loop as ASCENT: its
    rows hold within tol, its objective gain g over the start is at least
    2 min_gain, and its certificate and s'lam are at most
    _ASCENT_SLACK * g. None never stops early. Returns
    (x, multipliers, certificate, Newton steps, status). A
    problem that stops short of the certificate returns the start or, if
    one beats it, its best iterate whose rows are violated by at most tol.
    """
    c_obj = problem.objective_vector
    m = problem.n_constraints
    mu_floor = 0.01 * tol / m
    status = SubproblemStatus.MAX_ITERATIONS
    with np.errstate(over="ignore", invalid="ignore"):
        x, c, ctx = problem.start()
        f_start = float(c_obj @ x)
        if multipliers is None:
            s, lam = np.maximum(c, 1.0), np.ones(m)
        else:
            s, lam = np.maximum(c, 0.1), np.maximum(multipliers, 1e-6)
        best = None
        for it in range(_MAX_NEWTON + 1):
            G = problem.jacobian(ctx)
            r_d, r_p = c_obj + G.T @ lam, c - s
            residual = _certificate(r_d, c, lam)
            gap = float(s @ lam)
            if residual <= tol and gap <= 0.1 * tol:
                status = SubproblemStatus.OPTIMAL
                best = (x, lam, residual)
                break
            gain = float(c_obj @ x) - f_start
            if (min_gain is not None and it > 0 and -c.min() <= tol and gain >= 2.0 * min_gain
                    and max(residual, gap) <= _ASCENT_SLACK * gain):
                status = SubproblemStatus.ASCENT
                best = (x, lam, residual)
                break
            if best is None or (-c.min() <= tol and c_obj @ x > c_obj @ best[0]):
                best = (x, lam, residual)
            if it == _MAX_NEWTON:
                break

            # Mehrotra predictor-corrector (Nocedal & Wright, section 14.2) on one
            # factorization of the reduced Newton matrix G' diag(lam/s) G - sum_m
            # lam_m hess c_m: column 0 of the solve is the affine direction, and
            # the other columns Y map a centering target tau, one entry per row,
            # to its share of the step, so dx = dx_aff + Y tau.
            G_s = G / s[:, None]
            M = (G_s * lam[:, None]).T @ G
            M -= problem.weighted_constraint_hessian(ctx, lam)
            d = _newton_direction(M, np.column_stack((c_obj - G_s.T @ (lam * r_p), G_s.T)))
            if d is None:
                status = SubproblemStatus.NUMERICAL_FAILURE
                break
            ds_aff = G @ d[:, 0] + r_p
            dlam_aff = -lam - lam * ds_aff / s
            # the affine step goes all the way to the boundary: it only predicts mu_aff
            step = _to_boundary(np.concatenate((s, lam)), np.concatenate((ds_aff, dlam_aff)), 1.0)
            mu = gap / m
            mu_aff = float((s + step * ds_aff) @ (lam + step * dlam_aff)) / m
            infeasibility = np.abs(r_p)
            sigma = min(1.0, max((mu_aff / mu) ** 2, _THETA * float(infeasibility.max()) / mu))
            tau = np.maximum(0.0, max(sigma * mu, mu_floor) - ds_aff * dlam_aff)
            dx = d[:, 0] + d[:, 1:] @ tau
            ds = G @ dx + r_p
            dlam = (tau - lam * ds) / s - lam
            step = min(_to_boundary(np.concatenate((s, lam)), np.concatenate((ds, dlam))),
                       _MAX_MOVE / max(float(np.abs(dx).max()), _MAX_MOVE))
            allowed = max(_GROWTH * float(infeasibility.sum()), _SMALL)
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


def solve(sub: ConvexSubproblem, tol: float = 1e-8,
          multipliers: np.ndarray | None = None,
          min_gain: float | None = None) -> SubproblemSolution:
    """Solve one subproblem from its start; OPTIMAL means the certificate is within tol.

    `multipliers` warm-starts the multipliers, e.g. from the previous outer
    iteration's subproblem of the same scalarization; None starts cold.
    `min_gain` lets the solve stop early as ASCENT at a feasible iterate
    whose objective beats the start's by at least 2 min_gain (see the
    module docstring); None always solves to the certificate.
    """
    if min_gain is not None and not min_gain >= 0:
        raise DomainError("min_gain must be >= 0")
    if multipliers is not None:
        multipliers = np.asarray(multipliers, dtype=float)
        if multipliers.shape != (sub.n_constraints,):
            raise ShapeError("multiplier vector has the wrong length")
        if not np.isfinite(multipliers).all():
            raise DomainError("multipliers must be finite")
    x, lam, residual, iterations, status = _interior_point(sub, tol, multipliers, min_gain)
    return SubproblemSolution(
        x=x,
        q=sub.unpack_q(x),
        kkt_residual=residual,
        newton_iterations=iterations,
        status=status,
        multipliers=lam,
    )
