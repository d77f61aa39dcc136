"""Barrier Newton-CG outer loop for nonconvex conic programs.

For min f(x) s.t. Ax = b, x in K, the solver fixes a barrier weight mu tied
to the target tolerance and drives the merit function

    phi_mu(x) = f(x) + mu B(x)

over the affine slice.  Each iteration either (a) fails the first-order gate
and takes a capped-CG step on the damped, scaled and projected Newton system,
or (b) passes the gate and consults the minimum-eigenvalue oracle, which
either certifies an approximate second-order stationary point (terminate) or
supplies a negative-curvature escape direction.  Steps are safeguarded by a
backtracking line search with a quadratic decrease target for solution-type
directions and a cubic target for negative-curvature directions.

All steps lie in the null space of A by construction; a least-squares
re-projection guards against floating-point drift.

``solve`` forms mu and the constraint scale once, then loops over
``_iteration``: one outer iteration from a ``_State`` (the point's workspace,
phi_mu there, the carried lambda2 and mu nabla B at the previous point) to its
trace row and either the next state or the solve's end (status, multiplier,
oracle).  A stop, a line-search failure and ``max_outer_iters`` share one exit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import certify as certify_mod
from .capped_cg import DirectionKind, capped_cg
from .cones import barrier_factor, barrier_reads, local_norm_dual
from .counters import OpCounters
from .errors import (
    BoundaryError,
    CallbackError,
    DivergenceError,
    InfeasibleStart,
    LineSearchFailure,
    ParamError,
    ZeroDirection,
)
from .lanczos import min_eig_oracle
from .linops import IterationWorkspace
from .problems import ConicProblem
from .trace import BRANCH_CG_NC, BRANCH_CG_SOL, BRANCH_MEO_NC, BRANCH_TERMINATE, SolveTrace

FEAS_TOL = 1e-9  # relative residual of Ax = b accepted at x0; a tenth of it triggers re-projection


class SolveStatus(str, Enum):
    SOSP_CERTIFIED = "sosp_certified"
    FOSP_CERTIFIED = "fosp_certified"
    MAX_ITERS_EXCEEDED = "max_iters_exceeded"
    LINE_SEARCH_FAILURE = "line_search_failure"


@dataclass
class SolverParams:
    """Algorithm parameters; beta defaults to max(sqrt(epsilon), 0.5)."""

    epsilon: float
    zeta: float = 0.5
    beta: float | None = None
    theta: float = 0.5
    eta: float = 0.2
    delta: float = 0.01
    max_outer_iters: int = 50000
    max_backtracks: int = 60
    seed: int = 0
    fosp_only: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ParamError("epsilon must lie in (0, 1)")
        if self.beta is None:
            self.beta = max(math.sqrt(self.epsilon), 0.5)
        if not math.sqrt(self.epsilon) <= self.beta < 1.0:
            raise ParamError("beta must lie in [sqrt(epsilon), 1)")
        for name in ("zeta", "theta", "eta", "delta"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ParamError(f"{name} must lie in (0, 1)")
        for name, low in (("max_outer_iters", 1), ("max_backtracks", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise ParamError(f"{name} must be an integer >= {low}: iteration budgets are "
                                 f"positive and the seed nonnegative; got {value!r}")


@dataclass
class SolveResult:
    status: SolveStatus
    x_final: np.ndarray
    lambda_final: np.ndarray
    iterations: int
    mu: float
    trace: SolveTrace
    probability_bound: float | None = None  # oracle's certificate bound; 0 when vacuous
    estimated_hess_norm: float | None = None

    @property
    def certified(self) -> bool:
        return self.status in (SolveStatus.SOSP_CERTIFIED, SolveStatus.FOSP_CERTIFIED)


def mu_from_epsilon(eps: float, beta: float, theta_barrier: float) -> float:
    """Barrier weight (1 - beta) eps / (2 ((1 - beta)^2 + sqrt(theta))); <= eps / 4."""
    if not 0.0 < eps < 1.0:
        raise ParamError("eps must lie in (0, 1)")
    if not math.sqrt(eps) <= beta < 1.0:
        raise ParamError("beta must lie in [sqrt(eps), 1)")
    if theta_barrier < 1.0:
        raise ParamError("barrier parameter must be at least 1")
    return (1.0 - beta) * eps / (2.0 * ((1.0 - beta) ** 2 + math.sqrt(theta_barrier)))


def phi_value(problem: ConicProblem, x: np.ndarray, mu: float,
              counters: OpCounters) -> tuple[float, list]:
    """(f(x) + mu B(x), the cone reads of x); x is walked once, and its reads can build its factor.

    The walk comes first, so f is only called at an interior x (else BoundaryError).
    An f that is not a real scalar, or is NaN or -inf, raises CallbackError, while
    +inf is a value to backtrack from.
    """
    counters.add("fun_eval")
    barrier, reads = barrier_reads(problem.cone, x)
    value = problem.value(x)
    if type(value) is not float:  # a numpy or Python real scalar is read as a float
        if isinstance(value, bool) or not isinstance(value, (int, np.integer, np.floating)):
            raise CallbackError(f"objective value callback returned {value!r:.60}, not a real scalar")
        value = float(value)
    if value != value or value == -math.inf:
        raise CallbackError(f"objective value callback returned {'NaN' if value != value else '-inf'}")
    return value + mu * barrier, reads


def _checked_callback(
    name: str, fn: Callable[[np.ndarray], np.ndarray], n: int, counters: OpCounters, category: str
) -> Callable[[np.ndarray], np.ndarray]:
    """fn with each output checked to be n finite floats and counted as one ``category``."""

    def checked(arg: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(arg), dtype=float)
        if out.shape != (n,):
            raise CallbackError(f"{name} callback returned shape {out.shape}, expected ({n},)")
        if np.count_nonzero(np.isfinite(out)) < n:
            raise CallbackError(f"{name} callback returned a non-finite entry")
        counters.add(category)
        return out

    return checked


def first_order_gate(
    ws: IterationWorkspace,
    mu: float,
    beta: float,
    g: np.ndarray,
    grad_f: np.ndarray,
    lambda2: np.ndarray,
    mu_grad_b_prev: np.ndarray,
    counters: OpCounters,
) -> tuple[bool, str, float]:
    """Evaluate both dual-norm residuals against the threshold (1 - beta) mu.

    Returns (triggered, which, residual_min).  ``triggered`` means the smaller
    residual is already below the threshold, so the eigenvalue-oracle branch
    runs; otherwise the capped-CG branch runs.  Both dual norms use the factor
    at the current point.  ``g`` is ``ws.null_step_t(grad_f + mu grad_b)``,
    the capped-CG right-hand side.  The first residual pairs the least-squares
    multiplier lambda1 with the current barrier gradient, and
    L^{-1}(grad_phi + A^T lambda1) is exactly that projected, scaled gradient,
    so it is ||g|| and takes no solve of its own.  The second pairs the carried
    multiplier lambda2 with ``mu_grad_b_prev``, mu nabla B as formed at the
    previous point: one forward substitution, counted here.
    """
    vec2 = grad_f + (ws.affine.A.T.dot(lambda2) if ws.m else 0.0) + mu_grad_b_prev
    r1 = math.sqrt(g.dot(g))
    r2 = local_norm_dual(ws.factor, vec2)
    counters.add("tri_solve")
    if r1 <= r2:
        which, res = "lambda1", r1
    else:
        which, res = "lambda2", r2
    return res <= (1.0 - beta) * mu, which, res


def _beta_over(qnorm: float, beta: float) -> float:
    # delta / 0 is taken as +infinity
    return beta / qnorm if qnorm > 0.0 else math.inf


# Each direction scaling returns the multiplier c of d = c d_hat from
# qnorm = ||project(d_hat)||, so that the solver can reuse project(d_hat) for
# the ambient step when c = 1.  |c| <= beta / qnorm caps the local norm of the
# step at beta, and a curvature step takes the sign that makes g^T d <= 0.

def _sol_scale(d_hat: np.ndarray, qnorm: float, beta: float) -> float:
    if not np.count_nonzero(d_hat):
        raise ZeroDirection("cannot scale a zero direction")
    return min(1.0, _beta_over(qnorm, beta))


def _curvature_scale(d_hat: np.ndarray, qnorm: float, rate: float, g: np.ndarray, beta: float) -> float:
    """``rate`` is |d_hat^T H d_hat| / ||d_hat||^3; d^T H d <= -||d||^3 when it binds.

    A unit oracle direction v passes |v^T H_phi v|; a capped-CG direction passes
    its Rayleigh quotient's magnitude over ||d_hat||.
    """
    factor = min(rate, _beta_over(qnorm, beta))
    return -factor if g.dot(d_hat) >= 0.0 else factor


def _backtrack(
    problem: ConicProblem,
    ws: IterationWorkspace,
    mu: float,
    d: np.ndarray,
    decrease: float,
    params: SolverParams,
    counters: OpCounters,
    step: np.ndarray,
    phi0: float,
) -> tuple[float, np.ndarray, float, list]:
    """Backtrack from phi0 along ``step`` = null_step(d); ``decrease`` multiplies theta^{2j}.

    Returns (t, x_trial, phi_trial, reads of x_trial) at the first trial with enough decrease.
    Every trial lies in the Dikin ellipsoid, interior in exact arithmetic, so one that
    leaves the cone has lost its interiority to roundoff and raises DivergenceError.
    """
    if not np.count_nonzero(d):
        raise ZeroDirection("line search requires a nonzero direction")
    x = ws.point
    for j in range(params.max_backtracks + 1):
        t = params.theta**j
        x_trial = x + t * step if j else x + step  # a product with 1.0 is exact
        try:
            phi_trial, reads = phi_value(problem, x_trial, mu, counters)
        except BoundaryError:
            raise DivergenceError(
                "a line-search trial point left the cone through roundoff; the iterates "
                "likely grow without bound (an objective unbounded below on the feasible set)"
            ) from None
        if phi_trial < phi0 - decrease * t * t:
            return t, x_trial, phi_trial, reads
    raise LineSearchFailure(
        f"no sufficient decrease within {params.max_backtracks} backtracking steps"
    )


def line_search_sol(problem: ConicProblem, ws: IterationWorkspace, mu: float, d: np.ndarray,
                    params: SolverParams, counters: OpCounters, *, step: np.ndarray, phi0: float,
                    dd: float) -> tuple[float, np.ndarray, float, list]:
    """Quadratic decrease target eta sqrt(eps) theta^{2j} ||d||^2; ``dd`` is d^T d."""
    decrease = params.eta * math.sqrt(params.epsilon) * dd
    return _backtrack(problem, ws, mu, d, decrease, params, counters, step, phi0)


def line_search_nc(problem: ConicProblem, ws: IterationWorkspace, mu: float, d: np.ndarray,
                   params: SolverParams, counters: OpCounters, *, step: np.ndarray, phi0: float,
                   dd: float) -> tuple[float, np.ndarray, float, list]:
    """Cubic decrease target eta theta^{2j} ||d||^3 / 2; ``dd`` is d^T d."""
    decrease = params.eta * math.sqrt(dd) ** 3 / 2.0
    return _backtrack(problem, ws, mu, d, decrease, params, counters, step, phi0)


class _State(NamedTuple):
    """What one outer iteration hands the next; the point is ``ws.factor.point``."""

    ws: IterationWorkspace  # the point's factor and constraint workspace
    phi: float  # phi_mu at the point
    lambda2: np.ndarray  # the carried multiplier
    mu_grad_b_prev: np.ndarray  # mu nabla B at the previous point, which the gate reads


def _iteration(problem, params, counters, gradient, rng, mu, b_scale, b0, state):
    """One outer iteration from ``state``: (the trace row's fields after k, next state, end).

    ``end`` is None, or (status, multiplier, oracle) when the iteration ends the
    solve; the state it returns then is ``state``, whose point is the final one.
    """
    ws, phi, lambda2, mu_grad_b_prev = state
    x, m, affine, cone = ws.factor.point, ws.m, ws.affine, problem.cone
    beta, sqrt_eps = params.beta, math.sqrt(params.epsilon)
    mu_grad_b = mu * ws.factor.gradient  # mu nabla B at x, formed once per point
    grad_f = gradient(x)
    g, c_g = ws.null_step_t(grad_f + mu_grad_b)
    triggered, which, res_min = first_order_gate(
        ws, mu, beta, g, grad_f, lambda2, mu_grad_b_prev, counters
    )

    if not (triggered and params.fosp_only):
        hess_vec = _checked_callback("hess_vec", problem.hess_vec_at(x), x.size, counters, "hess_vec")
    # each branch yields d_hat, its projection q and the multiplier c of d = c d_hat
    if not triggered:
        cg_out = capped_cg(partial(ws.reduced_hessian_apply, hess_vec, mu), g, sqrt_eps,
                           params.zeta)
        d_hat = cg_out.direction
        q = ws.project(d_hat)
        if cg_out.kind is DirectionKind.NC:
            rate = abs(cg_out.curvature) / math.sqrt(d_hat.dot(d_hat))
            c = _curvature_scale(d_hat, math.sqrt(q.dot(q)), rate, g, beta)
            branch, searcher = BRANCH_CG_NC, line_search_nc
        else:
            c = _sol_scale(d_hat, math.sqrt(q.dot(q)), beta)
            branch, searcher = BRANCH_CG_SOL, line_search_sol
        cg_iters, lanczos_iters = cg_out.iterations, 0
    else:
        oracle = None if params.fosp_only else min_eig_oracle(
            partial(ws.reduced_hessian_apply, hess_vec, 0.0), x.size, sqrt_eps, params.delta, rng
        )
        cg_iters, lanczos_iters = 0, (0 if oracle is None else oracle.iterations)
        if oracle is None or not oracle.found_negative_curvature:
            status = SolveStatus.FOSP_CERTIFIED if oracle is None else SolveStatus.SOSP_CERTIFIED
            # lambda1 = multipliers(grad phi) is minus the range coefficient c_g
            end = (status, -c_g if which == "lambda1" else lambda2, oracle)
            return (phi, res_min, BRANCH_TERMINATE, 0.0, 0.0, 0, lanczos_iters), state, end
        # the step runs along q = P v / ||P v||, the part of v that the oracle's
        # operator P H P sees: q^T (P H P + mu P) q = v^T (P H P) v / ||P v||^2 + mu
        pv = ws.project(oracle.direction)
        pv_sq = float(pv.dot(pv))
        d_hat = q = pv / math.sqrt(pv_sq)
        c = _curvature_scale(d_hat, 1.0, abs(oracle.curvature / pv_sq + mu), g, beta)
        branch, searcher = BRANCH_MEO_NC, line_search_nc

    # the step is null_step(d): from the projection at hand when d = d_hat, and
    # projected afresh when d is scaled, so that it is exactly null_step(d) either way
    d = d_hat if c == 1.0 else c * d_hat  # a product with 1.0 is exact
    step = ws.unscale(q) if c == 1.0 else ws.null_step(d)
    dd = float(d.dot(d))
    dir_norm = math.sqrt(dd)
    try:
        alpha, x, phi_next, reads = searcher(
            problem, ws, mu, d, params, counters, step=step, phi0=phi, dd=dd
        )
    except LineSearchFailure:
        # the failed step's row, with alpha = 0.0
        end = (SolveStatus.LINE_SEARCH_FAILURE, -c_g, None)
        return (phi, res_min, branch, 0.0, dir_norm, cg_iters, lanczos_iters), state, end
    row = (phi, res_min, branch, alpha, dir_norm, cg_iters, lanczos_iters)

    # lambda2 = multipliers(H step + grad phi) from the Newton-step residual holds
    # only after a unit SOL step; otherwise the previous lambda2 carries over.  Both
    # range coefficients are at hand: c c_y of L^{-1} H step, carried by capped CG,
    # and c_g of L^{-1} grad phi, from null_step_t
    if m and branch == BRANCH_CG_SOL and alpha == 1.0:
        lam = -(c * cg_out.coef + c_g)
        lambda2 = np.array([lam]) if m == 1 else lam
    if m:
        if m == 1:  # the same 1 x n product, read as a scalar
            drift = abs(float(affine.A.dot(x)[0]) - b0)
        else:
            drift = float(np.maximum.reduce(np.abs(affine.A.dot(x) - affine.b)))
        if drift > FEAS_TOL * b_scale / 10.0:
            x, reads = _reproject(affine, cone, x)
    # the accepted point's reads, from the line search or the re-projection, so it
    # is not walked again
    ws = IterationWorkspace(affine, barrier_factor(cone, x, reads), counters)
    counters.add("cholesky")
    return row, _State(ws, phi_next, lambda2, mu_grad_b), None


def solve(problem: ConicProblem, x0: np.ndarray, params: SolverParams) -> SolveResult:
    """Run the barrier Newton-CG method from a strictly feasible x0."""
    try:
        real = np.asarray(x0).dtype.kind in "iuf"
    except ValueError:  # a ragged nesting
        real = False
    if not real:
        raise InfeasibleStart(f"x0 must be an array of real numbers, got {x0!r:.60}")
    x0 = np.asarray(x0, dtype=float)
    cone, affine = problem.cone, problem.affine
    n, m = problem.n, problem.m
    if x0.shape != (n,):
        raise InfeasibleStart(f"x0 has shape {x0.shape}, expected ({n},)")

    counters = OpCounters()
    trace = SolveTrace()
    eps = params.epsilon
    mu = mu_from_epsilon(eps, params.beta, cone.theta)
    rng = np.random.default_rng(params.seed)

    gradient = _checked_callback("gradient", problem.gradient, n, counters, "grad_eval")
    try:  # x0 is checked by the walk that values it
        phi, reads = phi_value(problem, x0, mu, counters)
    except BoundaryError:
        raise InfeasibleStart("x0 is not strictly interior to the cone") from None
    b_scale = 1.0 + (float(np.max(np.abs(affine.b))) if m else 0.0)
    b0 = float(affine.b[0]) if m == 1 else None
    if m and float(np.max(np.abs(affine.A @ x0 - affine.b))) > FEAS_TOL * b_scale:
        raise InfeasibleStart("x0 violates the equality constraints")
    ws = IterationWorkspace(affine, barrier_factor(cone, x0.copy(), reads), counters)
    counters.add("cholesky")
    # the first gate reads the start's own mu nabla B as the previous point's
    state = _State(ws, phi, np.zeros(m), mu * ws.factor.gradient)

    for k in range(params.max_outer_iters):
        row, state, end = _iteration(problem, params, counters, gradient, rng, mu, b_scale, b0,
                                     state)
        trace.append(k, *row)
        if end is not None:
            break
    else:
        # lambda1 at x_final itself, from its workspace and one more gradient
        ws = state.ws
        lambda1 = ws.multipliers(gradient(ws.factor.point) + mu * ws.factor.gradient) if m else None
        k, end = params.max_outer_iters, (SolveStatus.MAX_ITERS_EXCEEDED, lambda1, None)

    status, lam, oracle = end
    x = state.ws.factor.point
    trace.counters = counters.snapshot()
    lam = np.asarray(lam, dtype=float).reshape(m) if m else np.zeros(0)
    if status is SolveStatus.SOSP_CERTIFIED and problem.has_dense_hessian \
            and n <= certify_mod.DESK_SCALE_LIMIT:
        trace.certificate = certify_mod.check_sosp_dense(problem, x, lam, eps_g=eps, eps_h=math.sqrt(eps))
    else:
        trace.certificate = certify_mod.check_fosp(problem, x, lam, eps_g=eps)
    return SolveResult(
        status, x.copy(), lam, k, mu, trace,
        probability_bound=None if oracle is None else oracle.probability_bound,
        estimated_hess_norm=None if oracle is None else oracle.estimated_norm,
    )


def _reproject(affine, cone, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Least-squares correction back onto {Ax = b}, with its cone reads; must stay interior."""
    residual = affine.A @ x - affine.b
    correction = affine.A.T @ np.linalg.solve(affine.A @ affine.A.T, residual)
    x_new = x - correction
    try:
        return x_new, barrier_reads(cone, x_new)[1]
    except BoundaryError:
        raise DivergenceError(
            "the least-squares re-projection onto Ax = b left the cone; likely causes "
            "are an ill-conditioned A, a badly scaled objective, or iterates that grow "
            "without bound (an objective unbounded below on the feasible set)"
        ) from None
