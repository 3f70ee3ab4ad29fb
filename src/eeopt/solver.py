"""The objective families, the concave minorant of each rate, and the
primal-dual interior-point solver for the concave subproblems it bounds.

Three objectives trade x = total EE against y = min per-user EE: the
weighted product x**w * y**(1-w), the weighted minimum min(x/w, y/(1-w))
and, as the baseline that ignores the weight, the product of EEs
prod_i EE_i. In log2 variables u = log2 x and the users' log2 EE_i, whose
minimum is v = log2 y, they become the concave w*u + (1-w)*v,
min(u - log2 w, v - log2(1-w)) and sum_i log2 EE_i, which the subproblems
maximize and `log_objective` alone scores.

With q = log2 p, the true per-user rate

    R'_i(q) = B * sum_k log2(1 + gamma_i^k(2^q))

is neither convex nor concave. Around an expansion SINR gamma' we apply
the bound log2(1 + g) >= a*log2 g + b with a = g'/(1+g') and
b = log2(1+g') - a*log2 g', which is tight (same value and derivative)
at g = g'. Substituting the SINR expression turns the bounded rate into

    rate_i(q) = B * sum_k [ b + a*log2 w_ii + a*q_i^k - a*log2(total_ik) ],
    total_ik  = sum_{j!=i} w_ji * 2^{q_j^k} + noise_ik,

which is concave in q (affine minus a scaled log-sum-exp). The functions
bounding the efficiency constraints,

    psi_i(q, v) = rate_i(q) - (mu_i * sum_k 2^{q_i^k} + P_st,i) * 2^v
    g(q, u)     = sum_i rate_i(q) - (sum_i mu_i sum_k 2^{q_i^k} + sum_i P_st,i) * 2^u

are concave in (q, v) and (q, u) and strictly decreasing in the threshold
variable. `build` expands the bound at an allocation from its metrics
report; there the roots of psi and g are the report's log2 EE_i and log2
TEE, and the bound is tight at the report's SINR, both taking
log2(1 + g) by log1p.

One evaluation pass, `rate_evaluation`, returns 2^q and total_ik in
linear power by calling the instance's one interference kernel,
`network.interference_plus_noise`, at p = 2^q; its terms are the
received powers `network.evaluate` adds, from the same cross-gain table
in the same order. The sum needs no max-exponent stabilization: a term
that overflows makes its point's values non-finite, never finite and
wrong, so overflow can only get a trial step rejected by the line search.

Each subproblem maximizes a linear objective over smooth concave
inequality constraints c_m(x) >= 0 built from one expansion of the
bound: the powers q and the threshold columns theta its scalarization
needs, under per-user power budgets, surrogate rate floors and the
efficiency rows psi and g. Every row has the one form

    c = c0 + R rates(q) - 2^(S theta) * (W 2^q + P)

`ConvexSubproblem` alone turns a scalarization into that layout, as the
tables c0, R, W, P and S built once per run; its docstring gives the
column and row order and the table meanings. The rates, psi and g exist
only as these rows: every rate is affine in q and in log2 total, so
setting `ConvexSubproblem.model` folds each rate term's offset
b + a log2 w_ii and slope B a into the rows once per outer iteration:
c0' = c0 + R B sum_k (b + a log2 w_ii), RA = R (x) B a and AR = [RA 0],
RA on the q columns, give the package's one surrogate-rate formula,
c = c0' + AR x - RA log2(total) - 2^(S theta) * (W 2^q + P), one 2^q
serving rows and interference sum.

Both derivatives read off one derivative table Z. With the interference
shares s_jik = w_ji 2^{q_j^k} / total_ik, d rate_i / d q_j^k =
B a_ik (delta_ij - s_jik) and rate_i's Hessian on block k is
B a_ik ln2 (s s' - diag(s)) over s = s_.ik. Each power term, a nonzero
W_mj or P_m, enters row m's Jacobian as -u e' and its Hessian as
-ln2 u e e', with u = ln2 2^(S_m theta) W_mj 2^q_j (or ln2 2^(S_m theta)
P_m) and e the unit q_j column plus S_m (S_m alone for P_m). With Z the
rows of G, a row e per power term and a share row per user and block,
and U holding each u in its row,

    G = AR - RA shares - U Z[m:]    (RA shares: K products of m x N by N x N)
    M = Z' diag(omega) Z + diag(ln2 sum_i wa_ik s_jik),   wa = (R'lambda) B a,

omega = [lambda/s, ln2 lambda_m u, -ln2 wa]. Z is never formed: the power
terms, the K share blocks and their diagonal sit at fixed positions,
summed by one bincount into G and one into M.

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

Rows are normalized internally, power rows by the budget and rate-type
rows by the block bandwidth, so the Newton systems stay well conditioned;
the feasible set is unchanged and multipliers refer to the normalized rows.

Each iterate costs one interference pass, the start's included, as its
thresholds come with the model; a line-search trial gets only that value
pass and, once accepted, `jacobian` returns G, the coefficients u and the
shares from it. `newton_matrix` reads only the derivatives it is given,
so no call depends on which came before. The loop keeps (x, z), z = (s,
lambda), as one vector, so a boundary step is one divide and one min.

Everything here is deterministic: the same subproblem produces the
identical iterate sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ShapeError, check_number
from .network import MetricsReport, NetworkInstance, interference_plus_noise

__all__ = [
    "ScalarizationKind",
    "Scalarization",
    "weighted_product",
    "weighted_minimum",
    "product_ee",
    "log_objective",
    "ConvexSubproblem",
    "SubproblemStatus",
    "SubproblemSolution",
    "SurrogateModel",
    "bound_coefficients",
    "build",
    "rate_evaluation",
    "solve",
]

LN2 = math.log(2.0)


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


# -- the objective families -------------------------------------------------


class ScalarizationKind(Enum):
    WEIGHTED_PRODUCT = "weighted_product"
    WEIGHTED_MINIMUM = "weighted_minimum"
    PRODUCT_EE = "product_ee"


@dataclass(frozen=True)
class Scalarization:
    kind: ScalarizationKind
    weight: float = 0.5

    def __post_init__(self):
        check_number("weight", self.weight, 0, 1)
        w = float(self.weight)
        if self.kind is ScalarizationKind.WEIGHTED_MINIMUM and w in (0.0, 1.0):
            # min(x/w, y/(1-w)) divides by zero at the endpoints; pure
            # TEE or MEE maximization is the weighted product at w = 1 or 0.
            raise DomainError("weighted minimum needs weight strictly inside (0, 1)")
        object.__setattr__(self, "weight", w)


def weighted_product(weight: float) -> Scalarization:
    return Scalarization(ScalarizationKind.WEIGHTED_PRODUCT, weight)


def weighted_minimum(weight: float) -> Scalarization:
    return Scalarization(ScalarizationKind.WEIGHTED_MINIMUM, weight)


def product_ee() -> Scalarization:
    return Scalarization(ScalarizationKind.PRODUCT_EE, 0.5)


def log_objective(s: Scalarization, u: float, log_ee) -> float:
    """Concave log-domain objective at u = log2 TEE and the users' log2 EE_i.

    `log_ee` is the users' log2 EE_i or, for the two trade-offs, their
    minimum: v = log2 MEE is its minimum, and product-EE its sum. Every
    term the objective uses must be finite. The weighted product at w = 1
    (w = 0) is u (v) alone: the other term has weight 0, as its column has
    in the subproblem.
    """
    w = s.weight
    if s.kind is ScalarizationKind.PRODUCT_EE:
        f = float(np.sum(log_ee))
        if not math.isfinite(f):
            raise DomainError("every user's log2 EE must be finite")
        return f
    v = float(np.min(log_ee))
    if s.kind is ScalarizationKind.WEIGHTED_PRODUCT and w in (0.0, 1.0):
        term = u if w == 1.0 else v
        if not math.isfinite(term):
            raise DomainError(f"{'u' if w == 1.0 else 'v'} must be finite")
        return term
    if not (math.isfinite(u) and math.isfinite(v)):
        raise DomainError("u and v must be finite")
    if s.kind is ScalarizationKind.WEIGHTED_PRODUCT:
        return w * u + (1.0 - w) * v
    return min(u - math.log2(w), v - math.log2(1.0 - w))


# -- the bound and its rate pass ---------------------------------------------


def bound_coefficients(gamma_prime):
    """Coefficients (a, b) of the logarithmic lower bound at expansion SINR.

    a = g'/(1+g'), b = log2(1+g') - a*log2 g', with log2(1+g') as
    log1p(g') / ln 2; the conventions log2 0 = -inf and 0*log2 0 = 0 give
    (0, 0) for g' = 0. Accepts scalars or arrays.
    """
    check_number("expansion SINR", gamma_prime, 0)
    g = np.asarray(gamma_prime, dtype=float)
    a = g / (1.0 + g)
    b = np.log1p(g) / LN2 - a * np.log2(g, out=np.zeros_like(g), where=g > 0)
    if np.ndim(gamma_prime) == 0:
        return float(a), float(b)
    return a, b


@dataclass(frozen=True)
class SurrogateModel:
    """The bound expanded at one allocation, fixed for one subproblem."""

    instance: NetworkInstance
    a: np.ndarray               # (N, K), in [0, 1)
    b: np.ndarray               # (N, K)
    expansion_q: np.ndarray     # (N, K), log2 of the expansion powers
    log2_ee_total: float        # log2 TEE at the expansion point, the root of g there
    log2_ee: np.ndarray         # (N,) log2 EE_i there, the roots of psi_i


def build(instance: NetworkInstance, alloc: np.ndarray, report: MetricsReport) -> SurrogateModel:
    """Expand the bound at a strictly positive allocation, given its metrics report.

    `report` is `evaluate(instance, alloc)`, as the caller's network pass
    returned it. The bound is tight there, so the report's log2 TEE and
    log2 EE_i are the exact efficiency roots (-inf for an EE of 0).
    """
    p = np.asarray(alloc, dtype=float)
    gamma = report.sinr
    if p.shape != (instance.n_users, instance.n_blocks) or gamma.shape != p.shape:
        raise ShapeError(f"allocation shape {p.shape} or SINR shape {gamma.shape} "
                         "does not match instance")
    if np.any(p <= 0):
        raise DomainError(
            "surrogate expansion needs strictly positive powers (q = log2 p must be "
            "finite); start from a strictly positive allocation"
        )
    a, b = bound_coefficients(gamma)
    with np.errstate(divide="ignore"):
        log2_ee_total, log2_ee = float(np.log2(report.ee_total)), np.log2(report.ee)
    return SurrogateModel(instance=instance, a=a, b=b, expansion_q=np.log2(p),
                          log2_ee_total=log2_ee_total, log2_ee=log2_ee)


def rate_evaluation(model: SurrogateModel, q: np.ndarray):
    """Sum the interference at q in one pass: (2^q (N, K), user i's interference
    plus noise at [k, i])."""
    q = np.asarray(q, dtype=float)
    if q.shape != model.expansion_q.shape:
        raise ShapeError(f"q shape {q.shape} does not match instance {model.expansion_q.shape}")
    power = np.exp2(q)
    return power, interference_plus_noise(model.instance, power)


class SubproblemStatus(Enum):
    OPTIMAL = "optimal"
    ASCENT = "ascent"                 # stopped early on a feasible gain of at least 2 min_gain
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass(frozen=True)
class SubproblemSolution:
    x: np.ndarray                     # the layout's variables; `unpack_q` reads q off them
    kkt_residual: float
    newton_iterations: int
    status: SubproblemStatus
    multipliers: np.ndarray


class ConvexSubproblem:
    """One concave subproblem: a surrogate model plus the layout its scalarization induces.

    Columns, in order: q (q_ik in column i*K + k), then the columns theta:
    u and the min-EE thresholds (one shared v, or v_1..v_N for the
    product-EE baseline), or one column t for the weighted minimum, which
    `u_index` and `_v_cols` then both name. Rows, in order: N power
    budgets, N rate floors, N efficiency slacks psi_i (where v or t is
    present) and the total-efficiency slack g (where u or t is present).
    Every row has the one form

        c = c0 + R rates(q) - 2^(S theta) * (W 2^q + P)

    with the tables built once here (attributes `_c0`, `_R`, `_W`, `_P`
    and `_S`):

    * c0 (m,): 1 on the power rows, -min_rate / B on the floors;
    * R (m, N): which rates enter each row, scaled by 1/B;
    * W (m, NK) and P (m,): each row's consumed-power weights on 2^q and
      its static power, over the budget on the power rows and over B on
      psi and g;
    * S (m, n_vars - NK): at most one 1 per row, on the threshold that
      scales the row's power term; a shared v is a repeated column.

    So a power row is 1 - sum_k 2^q_ik / Pmax_i and a floor
    (rate_i - min_rate_i) / B, both with S theta = 0, and psi_i and g are
    the module docstring's surrogate slacks over B. The objective is linear:

    * weighted product: w*u + (1-w)*v; a column with zero weight is
      dropped with its rows (u at w = 0, v at w = 1), so the Newton matrix
      has no dead directions;
    * weighted minimum: t, the epigraph variable of its log form; g and
      psi decrease in u and v, so the epigraph binds at u = t + log2 w and
      v = t + log2(1-w), and as 2^u = w 2^t, g's W and P carry a factor
      w and psi's 1-w;
    * product-EE baseline: sum_i v_i.

    `model` may be set to another model of the same instance: the layout
    stays, and the surrogate is folded into the rows (module docstring).
    """

    def __init__(self, model: SurrogateModel, scalarization: Scalarization):
        # the objective weights of u and v, None where the column and its rows are
        # absent; `per_user` gives each user its own v column, and `minimum` = w
        # makes u and v one column t, with g's power terms times w and psi's times 1 - w
        kind, w, inst = scalarization.kind, scalarization.weight, model.instance
        self._scalarization = scalarization
        u, v, per_user, minimum = None, 1.0, False, None
        if kind is ScalarizationKind.WEIGHTED_PRODUCT:
            u, v = (w if w > 0.0 else None), (1.0 - w if w < 1.0 else None)
        elif kind is ScalarizationKind.WEIGHTED_MINIMUM:
            u, minimum = 1.0, w
        else:
            per_user = True
        n, k = inst.n_users, inst.n_blocks
        self.n_users, self.n_blocks = n, k
        self.nq = nq = n * k

        idx = nq
        self.u_index = self._v_cols = None
        if u is not None:
            self.u_index = idx
            idx += minimum is None          # the weighted minimum's v shares it, as t
        if v is not None:
            # user i's threshold column; a shared v repeats its column
            self._v_cols = idx + np.arange(n) if per_user else np.full(n, idx)
            idx += n if per_user else 1
        self.n_vars = idx
        tee, mee = (1.0, 1.0) if minimum is None else (minimum, 1.0 - minimum)

        self._g_row = 3 * n if v is not None else 2 * n
        m = self._g_row + (u is not None)
        self.n_constraints = m

        # the objective and the row tables; power rows are normalized by the
        # budget and the rate-type rows by the block bandwidth B
        per_b, users = 1.0 / inst.bandwidth_per_block, np.arange(n)
        own_q = np.repeat(np.eye(n), k, axis=1)            # (N, NK): user i's q columns
        obj, c0 = np.zeros(self.n_vars), np.zeros(m)
        R, W, P = np.zeros((m, n)), np.zeros((m, nq)), np.zeros(m)
        S = np.zeros((m, self.n_vars - nq))
        c0[:n] = 1.0
        W[:n] = own_q / inst.max_power[:, None]
        c0[n : 2 * n] = -inst.min_rate * per_b
        R[n + users, users] = per_b
        if v is not None:
            obj[self._v_cols] = v
            R[2 * n + users, users] = per_b
            W[2 * n : 3 * n] = own_q * (mee * inst.amp_inefficiency * per_b)[:, None]
            P[2 * n : 3 * n] = mee * inst.static_power * per_b
            S[2 * n + users, self._v_cols - nq] = 1.0
        if u is not None:
            g = self._g_row
            obj[self.u_index] = u
            R[g] = per_b
            W[g] = np.repeat(tee * inst.amp_inefficiency * per_b, k)
            P[g] = tee * inst.static_power.sum() * per_b
            S[g, self.u_index - nq] = 1.0
        self.objective_vector = obj
        self._c0, self._R, self._W, self._P, self._S = c0, R, W, P, S

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
        # the Newton matrix adds, by one bincount, each e e' and then, on the q
        # columns, the share blocks at [k, j, l] and their diagonal at [k, j]
        q_col = np.arange(n) * k + np.arange(k)[:, None]        # column of q_jk at [k, j]
        blocks = q_col[:, :, None] * nv + q_col[:, None, :]
        self._hess_pattern = (term[left], np.concatenate(
            (col[left] * nv + col[right], blocks.ravel(), q_col.ravel() * (nv + 1))))
        # R B a s on each block, written into the q columns of a zero buffer at [k, m, j];
        # scratch of one `jacobian` call
        self._share_term = np.zeros((m, nv))
        self._share_blocks = self._share_term[:, :nq].reshape(m, n, k).transpose(2, 0, 1)
        self.model = model

    @property
    def model(self) -> SurrogateModel:
        return self._model

    @model.setter
    def model(self, model: SurrogateModel):
        """Swap in a surrogate, folding its rate offset b + a log2 w_ii and slope B a into
        c0', AR and RA (RA's columns k-major, as the rate pass's interference sum)."""
        self._model = model
        m, nq, inst = self.n_constraints, self.nq, model.instance
        slope = (inst.bandwidth_per_block * model.a).T       # B a at [k, i]
        offset = (model.b + model.a * np.log2(inst.direct_gain())).sum(axis=1)
        self._c0_model = self._c0 + self._R @ (inst.bandwidth_per_block * offset)
        RA = self._R[:, None, :] * slope                     # R_mi B a_ik at [m, k, i]
        self._RA, self._RA_blocks = RA.reshape(m, nq), RA.transpose(1, 0, 2)
        self._AR = np.zeros((m, self.n_vars))
        self._AR[:, :nq] = RA.transpose(0, 2, 1).reshape(m, nq)
        self._ln2_slope = LN2 * slope

    # -- variable packing ------------------------------------------------

    def pack(self, q: np.ndarray, u: float | None = None, v=None) -> np.ndarray:
        """The variable vector; values for columns this layout lacks are ignored.

        `v` is one threshold for every user or one per user; users that
        share a column get the smallest of theirs, the one all of them meet.
        """
        x = np.zeros(self.n_vars)
        x[: self.nq] = np.asarray(q, dtype=float).ravel()
        if self.u_index is not None:
            x[self.u_index] = u
        if self._v_cols is not None:
            x[self._v_cols] = v if self._v_cols[-1] > self._v_cols[0] else np.min(v)
        return x

    def unpack_q(self, x: np.ndarray) -> np.ndarray:
        return x[: self.nq].reshape(self.n_users, self.n_blocks)

    # -- constraint evaluation --------------------------------------------

    def evaluate(self, x: np.ndarray, with_grad: bool = True):
        """Normalized constraint values, optional Jacobian, and the kept pass
        (2^q, interference sum, 2^(S theta)) that `jacobian` reads the
        derivatives from; without the Jacobian this is the value pass."""
        c, kept = self._rows(x, *rate_evaluation(self.model, self.unpack_q(x)))
        return c, (self.jacobian(kept)[0] if with_grad else None), kept

    def start(self):
        """The expansion point with each threshold at its exact root: (x, c, kept pass).

        The roots are the model's log2 TEE and log2 EE_i, read off the
        metrics report it was built from; t is their weighted minimum, at
        which g or the worst user's psi binds. The surrogate is tight at the
        expansion point, so every row is nonnegative there and the threshold
        rows that bind are zero."""
        m = self.model
        u, v = m.log2_ee_total, m.log2_ee
        if self._scalarization.kind is ScalarizationKind.WEIGHTED_MINIMUM:
            u = v = log_objective(self._scalarization, u, v)
        x = self.pack(m.expansion_q, u=u, v=v)
        return (x, *self._rows(x, *rate_evaluation(m, m.expansion_q)))

    def _rows(self, x: np.ndarray, power: np.ndarray, total: np.ndarray):
        """Constraint values at x from the rate pass (2^q, interference sum) at x's q,
        and the kept pass."""
        scale = np.exp2(self._S @ x[self.nq :])
        c = (self._c0_model + self._AR @ x - self._RA @ np.log2(total).ravel()
             - scale * (self._W @ power.ravel() + self._P))
        return c, (power, total, scale)

    def jacobian(self, kept):
        """The derivatives at a kept pass's point: (G, u, shares), with G = AR - RA shares
        - U Z[m:], u the power-term coefficients and the shares s_jik at [k, i, j]; the
        tuple is what `newton_matrix` reads."""
        power, total, scale = kept
        sh = self.model.instance.cross_gain() * power.T[:, None, :]
        sh /= total[:, :, None]
        u = scale[self._term_rows] * self._term_coef
        u[: self._term_q.size] *= power.ravel()[self._term_q]
        np.matmul(self._RA_blocks, sh, out=self._share_blocks)
        term, flat = self._jac_pattern
        powers = np.bincount(flat, u[term], minlength=self._share_term.size)
        G = self._AR - self._share_term - powers.reshape(self._share_term.shape)
        return G, u, sh

    def newton_matrix(self, derivatives, sigma: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """G' diag(sigma) G - sum_m lam_m hess c_m from the derivatives `jacobian` returned:
        the rows of G as one product, then the power terms and the K share blocks
        by one bincount."""
        G, u, sh = derivatives
        M = np.matmul(G.T * sigma, G)
        term, flat = self._hess_pattern
        ln2_wa = self._ln2_slope * (lam @ self._R)                   # at [k, i]
        weighted = sh.transpose(0, 2, 1) * -ln2_wa[:, None, :]      # -ln2 wa_ik s_jik at [k, j, i]
        omega = np.concatenate(((LN2 * lam[self._term_rows] * u)[term],   # ln2 lam_m u
                                np.matmul(weighted, sh).ravel(),
                                np.matmul(ln2_wa[:, None, :], sh).ravel()))
        M += np.bincount(flat, omega, minlength=M.size).reshape(M.shape)
        return M


# -- primal-dual interior point ---------------------------------------------


def _newton_directions(M: np.ndarray, rhs: np.ndarray):
    """The finite solutions of M d = rhs under an escalating ridge on M's diagonal, in turn."""
    diagonal = M.reshape(-1)[:: M.shape[0] + 1]
    added = 0.0
    for boost in (_RIDGE, _RIDGE * 1e4, _RIDGE * 1e8):
        diagonal += boost - added
        added = boost
        try:
            d = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            continue
        if math.isfinite(d.sum()):
            yield d


def _to_boundary(z, dz, fraction: float = _TO_BOUNDARY) -> float:
    """Largest step in (0, 1] keeping z = (s, lam) > 0 above (1 - fraction) of itself."""
    fastest = float((dz / z).min())
    return 1.0 if fastest >= 0.0 else min(1.0, -fraction / fastest)


def _certificate(c_obj, G, c, lam, violation: float) -> float:
    """max(||grad f + G'lam||_inf, max |lam_m c_m|, max(0, -c_m)), given violation = -min c."""
    return max(float(np.abs(c_obj + lam @ G).max()), float(np.abs(lam * c).max()), violation)


def solve(problem: ConvexSubproblem, tol: float = 1e-8, multipliers: np.ndarray | None = None,
          min_gain: float | None = None) -> SubproblemSolution:
    """Solve one subproblem by primal-dual Newton from `problem.start()` until the
    KKT certificate meets tol; OPTIMAL means the certificate is within tol.

    `problem.jacobian(pass)` returns the derivatives at a kept pass's point, G
    first, and `problem.newton_matrix(derivatives, sigma, lam)` reads them.
    `multipliers` warm-start lambda and must come from a subproblem of the same
    layout, e.g. the previous outer iteration's of the same scalarization; None
    starts cold. With `min_gain`, an iterate after the start may end the loop as
    ASCENT (see the module docstring): its rows hold within tol, its objective
    gain g over the start is at least 2 min_gain, and its certificate and s'lam
    are at most _ASCENT_SLACK * g; None always solves to the certificate. Stopping
    short of the certificate, it returns the start or, if one beats it, its best
    iterate whose rows are violated by at most tol.
    """
    check_number("tol", tol, 0, strict=True)
    if min_gain is not None and min_gain != math.inf:
        check_number("min_gain", min_gain, 0)
    if multipliers is not None:
        if np.shape(multipliers) != (problem.n_constraints,):
            raise ShapeError("multiplier vector has the wrong length")
        check_number("multipliers", multipliers)
    c_obj = problem.objective_vector
    n, m = problem.n_vars, problem.n_constraints
    rhs = np.empty((n, m + 1))
    # the iterate is one vector y = (x, z), with the slacks and the multipliers
    # as the halves of z = (s, lam); the direction dy = (dx, ds, dlam) likewise
    dy = np.empty(n + 2 * m)
    dx, dz, ds, dlam = dy[:n], dy[n:], dy[n : n + m], dy[n + m :]
    mu_floor = 0.01 * tol / m
    status = SubproblemStatus.MAX_ITERATIONS
    with np.errstate(over="ignore", invalid="ignore"):
        x, c, ctx = problem.start()
        f = f_start = float(c_obj @ x)
        if multipliers is None:
            y = np.concatenate((x, np.maximum(c, 1.0), np.ones(m)))
        else:
            y = np.concatenate((x, np.maximum(c, 0.1), np.maximum(multipliers, 1e-6)))
        best = None
        for it in range(_MAX_NEWTON + 1):
            x, z, s, lam = y[:n], y[n:], y[n : n + m], y[n + m :]
            derivatives = problem.jacobian(ctx)
            G = derivatives[0]
            r_p = c - s
            violation = -float(c.min())
            gap = float(s @ lam)
            gain = f - f_start
            ascent = (min_gain is not None and it > 0 and violation <= tol
                      and gain >= 2.0 * min_gain and gap <= _ASCENT_SLACK * gain)
            # the certificate is computed only where it can stop the loop
            if gap <= 0.1 * tol or ascent:
                residual = _certificate(c_obj, G, c, lam, violation)
                if residual <= tol and gap <= 0.1 * tol:
                    status = SubproblemStatus.OPTIMAL
                elif ascent and residual <= _ASCENT_SLACK * gain:
                    status = SubproblemStatus.ASCENT
                if status is not SubproblemStatus.MAX_ITERATIONS:
                    return SubproblemSolution(x, residual, it, status, lam)
            if best is None or (violation <= tol and f > f_best):
                best, f_best = (x, lam, c, G, violation), f
            if it == _MAX_NEWTON:
                break

            # Mehrotra predictor-corrector (Nocedal & Wright, section 14.2) on one
            # factorization of the reduced Newton matrix G' diag(lam/s) G - sum_m
            # lam_m hess c_m: column 0 of the solve is the affine direction, and
            # the other columns Y = M^-1 G' map a centering target tau, one entry
            # per row, to its share of the step, so dx = dx_aff + Y (tau / s)
            # and, with G d formed once, s + ds = c + G dx. A direction too long
            # for a step of _MIN_STEP under the move bound, as a numerically
            # singular M gives once vanishing powers' multipliers near zero, is
            # solved again under the next ridge.
            sigma, mu, infeasibility = lam / s, gap / m, np.abs(r_p)
            rhs[:, 1:] = G.T
            np.subtract(c_obj, (sigma * r_p) @ G, out=rhs[:, 0])
            for d in _newton_directions(problem.newton_matrix(derivatives, sigma, lam), rhs):
                Gd = G @ d
                w = c + Gd[:, 0]                              # s + ds_aff
                np.subtract(w, s, out=ds)
                np.multiply(w, -sigma, out=dlam)              # -lam - lam ds_aff / s
                # the affine step goes to the boundary: it only predicts mu_aff, and as
                # s dlam + lam ds = -s lam there, m mu_aff = (1-step) s'lam + step^2 ds'dlam
                step = _to_boundary(z, dz, 1.0)
                product = ds * dlam
                mu_aff = ((1.0 - step) * gap + step * step * float(product.sum())) / m
                centering = min(1.0, max((mu_aff / mu) ** 2, _THETA * float(infeasibility.max()) / mu))
                tau_s = np.maximum(0.0, max(centering * mu, mu_floor) - product) / s
                np.add(d[:, 0], d[:, 1:] @ tau_s, out=dx)
                w += Gd[:, 1:] @ tau_s                        # s + ds
                np.subtract(w, s, out=ds)
                np.subtract(tau_s, sigma * w, out=dlam)       # (tau - lam ds) / s - lam
                step = min(_to_boundary(z, dz), _MAX_MOVE / max(float(np.abs(dx).max()), _MAX_MOVE))
                if step >= _MIN_STEP:
                    break
            else:
                status = SubproblemStatus.NUMERICAL_FAILURE
                break
            allowed = max(_GROWTH * float(infeasibility.sum()), _SMALL)
            while step >= _MIN_STEP:
                y_new = y + step * dy
                c_new, _, ctx_new = problem.evaluate(y_new[:n], with_grad=False)
                if np.abs(c_new - y_new[n : n + m]).sum() <= allowed:   # False on inf or nan
                    break
                step *= _BACKTRACK
            else:
                status = SubproblemStatus.NUMERICAL_FAILURE
                break
            y, c, ctx = y_new, c_new, ctx_new
            f = float(c_obj @ y[:n])
        x, lam, c, G, violation = best
        return SubproblemSolution(x, _certificate(c_obj, G, c, lam, violation), it, status, lam)
