"""Primal-dual interior-point solver for the concave inner subproblems.

Each subproblem maximizes a linear objective over smooth concave
inequality constraints c_m(x) >= 0 built from one surrogate model: the
powers q = log2 p and the threshold columns theta its scalarization
needs, under per-user power budgets, surrogate rate floors and the
efficiency rows. Every row has the one form

    c = c0 + A x + R rates(q) - 2^(S theta) * (W 2^q + P)

`ConvexSubproblem` alone turns a scalarization into that layout, as the
tables c0, A, R, W, P and S built once per run; its docstring gives the
column and row order and the table meanings.

The solver runs one Newton iteration on the perturbed KKT system of
c(x) - s = 0, s > 0 (Nocedal & Wright, sections 19.2-19.3): primal x,
slacks s and multipliers lambda move together, and a step eliminates ds
and dlambda to solve the reduced system

    M dx = (G' diag(lambda/s) G - sum_m lambda_m hess c_m) dx = rhs

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
after the start whose rows hold within tol, whose objective gain g over
the start is at least 2 min_gain, and whose certificate and s'lambda are
both at most g / 10. That point is feasible and beats the expansion
point, which is all the outer loop's minorize-maximize ascent needs
(`eeopt.engine`); its min_gain makes such a gain earn another outer
iteration, whose subproblem is solved in turn.

Constraints are normalized internally (power rows by the power budget,
rate-type rows by the block bandwidth) so the Newton systems stay well
conditioned when bandwidths are in the hundreds of kHz; the feasible set
is unchanged and multipliers refer to the normalized rows.

Both derivatives read off one derivative table Z with a fixed pattern.
Each power term, a nonzero W_mj or P_m, enters row m's Jacobian as -u e'
and its Hessian as -ln2 u e e', with u = ln2 2^(S_m theta) W_mj 2^q_j (or
ln2 2^(S_m theta) P_m) and e the unit q_j column plus S_m (S_m alone for
P_m); each rate_i on block k adds R_mi B a_ik ln2 (s s' - diag(s)) over
the interference shares s = s_.ik (`eeopt.surrogate`). With Z the rows
of G, a row e per power term and a share row per user and block,

    G = A + R B a - U Z[m:]       (R B a: R_mi B a_ik in q column i*K + k)
    M = Z' diag(omega) Z + diag(ln2 sum_i wa_ik s_jik),   wa = (R'lambda) B a,

U holding each u in its row and R_mi B a_ik against share row i*K + k,
and omega = [lambda/s, ln2 lambda_m u, -ln2 wa]. Z is read by its
pattern, never formed densely: the power terms sit at fixed positions,
summed by one bincount into G and one into M, and the share rows form K
blocks of N x N, so both products cost about their nonzeros.

Each iterate costs one rate pass; the start's serves both its threshold
roots and its rows. A line-search trial point gets only a value pass
(`ConvexSubproblem.evaluate` without the Jacobian). Once a trial is
accepted, `jacobian` fills the table from that kept pass, never
evaluating the point again, and `newton_matrix` reads it.

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
from .surrogate import LN2, SurrogateModel, efficiency_roots, rate_evaluation

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

    `model` may be set to another model of the same instance; every table
    stays. `jacobian` fills the derivative table and `newton_matrix` reads it.
    """

    def __init__(self, model: SurrogateModel, scalarization: Scalarization):
        kind, w, inst = scalarization.kind, scalarization.weight, model.instance
        if kind is ScalarizationKind.WEIGHTED_PRODUCT:
            self._lay_out(inst, u=w if w > 0.0 else None, v=1.0 - w if w < 1.0 else None)
        elif kind is ScalarizationKind.WEIGHTED_MINIMUM:
            self._lay_out(inst, u=0.0, v=0.0, offsets=(-math.log2(w), -math.log2(1.0 - w)))
        else:
            self._lay_out(inst, v=1.0, per_user=True)
        self.model = model

    def _lay_out(self, inst, u=None, v=None, per_user=False, offsets=None):
        """Columns, objective, row tables and derivative table of one shape.

        `u` and `v` are the objective weights of the threshold columns, None
        where the column and its rows are absent; `per_user` gives each user
        its own v column. `offsets` adds t and the two epigraph rows.
        """
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

        # the derivative table: each power term's row and ln2-scaled coefficient,
        # the W terms first with their q columns; the term and flat position of
        # each entry of its Jacobian row (the nonzeros of e) and of its Hessian
        # term e e'; the shares, s_jik at [k, i, j]
        w_rows, w_cols = np.nonzero(W)
        p_rows = np.flatnonzero(P)
        self._term_rows = rows = np.concatenate((w_rows, p_rows))
        self._term_q = w_cols
        self._term_coef = LN2 * np.concatenate((W[w_rows, w_cols], P[p_rows]))
        nv = self.n_vars
        with_theta, theta = np.nonzero(S[rows])
        term = np.concatenate((np.arange(w_rows.size), with_theta))
        order = np.argsort(term, kind="stable")         # a term's columns side by side
        term, col = term[order], np.concatenate((w_cols, nq + theta))[order]
        self._jac_pattern = (term, rows[term] * nv + col)
        pair = np.flatnonzero(term[1:] == term[:-1])    # the terms with two columns
        left = np.concatenate((np.arange(term.size), pair, pair + 1))
        right = np.concatenate((np.arange(term.size), pair + 1, pair))
        self._hess_pattern = (term[left], col[left] * nv + col[right])
        self._shares, self._eye = np.empty((k, n, n)), np.eye(n)
        # the Newton matrix's buffer, its q columns' K diagonal blocks at [k, j, l], its q diagonal
        self._M = np.empty((nv, nv))
        self._M_blocks = np.einsum("jklk->kjl", self._M[:nq, :nq].reshape(n, k, n, k))
        self._M_diagonal = self._M.reshape(-1)[:: nv + 1][:nq].reshape(n, k).T

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
        derivatives. The kept pass (rate pass, 2^q, 2^(S theta)) holds
        what `jacobian` fills the derivative table from.
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
        return c, (ev, exp_q, scale)

    def jacobian(self, kept) -> np.ndarray:
        """G = A + R B a - U Z[m:] at a kept pass's point, filling the derivative table there."""
        ev, exp_q, scale = kept
        n, k, sh = self.n_users, self.n_blocks, self._shares
        np.divide(ev.scaled.transpose(2, 1, 0), ev.total.T[:, :, None], out=sh)
        self._u = u = scale[self._term_rows] * self._term_coef
        u[: self._term_q.size] *= exp_q[self._term_q]
        G = self._jacobian_template.copy()
        # the rate Jacobian block by block: B a_ik (delta_ij - s_jik) at [k, i, j]
        rate_jacobian = self.model.rate_slope.T[:, :, None] * (self._eye - sh)
        G[:, : self.nq].reshape(len(G), n, k).transpose(2, 0, 1)[...] = self._R @ rate_jacobian
        term, flat = self._jac_pattern
        G -= np.bincount(flat, u[term], minlength=G.size).reshape(G.shape)
        self._G = G
        return G

    def newton_matrix(self, sigma: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """G' diag(sigma) G - sum_m lam_m hess c_m at the point of the last `jacobian`.

        Z' diag(omega) Z plus the shares' diagonal, read by Z's pattern: the
        rows of G as one product, the power terms on their pattern, the
        shares block by block. The matrix is a buffer the next call overwrites.
        """
        G, sh, M = self._G, self._shares, self._M
        np.matmul(G.T * sigma, G, out=M)
        ln2_lam = LN2 * lam
        term, flat = self._hess_pattern
        omega = (ln2_lam[self._term_rows] * self._u)[term]       # ln2 lam_m u on e e'
        M += np.bincount(flat, omega, minlength=M.size).reshape(M.shape)
        ln2_wa = self.model.rate_slope.T * (self._R.T @ ln2_lam)   # at [k, i]
        weighted = sh.transpose(0, 2, 1) * ln2_wa[:, None, :]        # ln2 wa_ik s_jik at [k, j, i]
        self._M_blocks -= np.matmul(weighted, sh)
        self._M_diagonal += weighted.sum(axis=2)
        return M


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


def _to_boundary(s, ds, lam, dlam, fraction: float = _TO_BOUNDARY) -> float:
    """Largest step in (0, 1] keeping s, lam > 0 above (1 - fraction) of themselves."""
    fastest = float(np.minimum((ds / s).min(), (dlam / lam).min()))
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
    rhs = np.empty((problem.n_vars, m + 1))
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
            # the other columns Y = M^-1 G' diag(1/s) map a centering target tau,
            # one entry per row, to its share of the step, so dx = dx_aff + Y tau.
            np.divide(G.T, s, out=rhs[:, 1:])
            rhs[:, 0] = c_obj - rhs[:, 1:] @ (lam * r_p)
            d = _newton_direction(problem.newton_matrix(lam / s, lam), rhs)
            if d is None:
                status = SubproblemStatus.NUMERICAL_FAILURE
                break
            ds_aff = G @ d[:, 0] + r_p
            dlam_aff = -lam - lam * ds_aff / s
            # the affine step goes all the way to the boundary: it only predicts mu_aff
            step = _to_boundary(s, ds_aff, lam, dlam_aff, 1.0)
            mu = gap / m
            mu_aff = float((s + step * ds_aff) @ (lam + step * dlam_aff)) / m
            infeasibility = np.abs(r_p)
            sigma = min(1.0, max((mu_aff / mu) ** 2, _THETA * float(infeasibility.max()) / mu))
            tau = np.maximum(0.0, max(sigma * mu, mu_floor) - ds_aff * dlam_aff)
            dx = d[:, 0] + d[:, 1:] @ tau
            ds = G @ dx + r_p
            dlam = (tau - lam * ds) / s - lam
            step = min(_to_boundary(s, ds, lam, dlam),
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
