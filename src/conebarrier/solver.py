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
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import certify as certify_mod
from .capped_cg import CappedCgParams, DirectionKind, capped_cg, nc_curvature
from .cones import (
    barrier_factor,
    barrier_gradient,
    barrier_value,
    interior_membership,
    local_norm_dual,
)
from .counters import OpCounters, bump
from .errors import (
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
from .trace import BRANCH_CG_NC, BRANCH_CG_SOL, BRANCH_MEO_NC, BRANCH_TERMINATE, IterationRecord, SolveTrace

INTERIOR_GUARD = 1e-12  # solver-internal strict-interiority margin


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
    feas_tol: float = 1e-9
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
        if self.max_outer_iters < 1 or self.max_backtracks < 1:
            raise ParamError("iteration budgets must be positive")


@dataclass
class SolveResult:
    status: SolveStatus
    x_final: np.ndarray
    lambda_final: np.ndarray
    iterations: int
    mu: float
    trace: SolveTrace
    probability_bound: float | None = None
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
              counters: OpCounters | None = None) -> float:
    """f(x) + mu B(x); a NaN f raises CallbackError, while +inf is a value to backtrack from."""
    bump(counters, "fun_eval")
    value = problem.value(x)
    if math.isnan(value):
        raise CallbackError("objective value callback returned NaN")
    return value + mu * barrier_value(problem.cone, x)


def _checked_vector(name: str, out: np.ndarray, n: int) -> np.ndarray:
    """A callback's output, once it is known to be n finite floats."""
    out = np.asarray(out, dtype=float)
    if out.shape != (n,):
        raise CallbackError(f"{name} callback returned shape {out.shape}, expected ({n},)")
    if not np.isfinite(out).all():
        raise CallbackError(f"{name} callback returned a non-finite entry")
    return out


def first_order_gate(
    ws: IterationWorkspace,
    mu: float,
    beta: float,
    grad_f: np.ndarray,
    grad_b: np.ndarray,
    lambda1: np.ndarray,
    lambda2: np.ndarray,
    grad_b_prev: np.ndarray,
    counters: OpCounters | None = None,
) -> tuple[bool, str, float]:
    """Evaluate both dual-norm residuals against the threshold (1 - beta) mu.

    Returns (triggered, which, residual_min).  ``triggered`` means the smaller
    residual is already below the threshold, so the eigenvalue-oracle branch
    runs; otherwise the capped-CG branch runs.  Both dual norms use the factor
    at the current point; the second residual pairs the carried multiplier
    with the barrier gradient at the previous point.
    """
    at = ws.affine.A.T
    vec1 = grad_f + (at @ lambda1 if ws.m else 0.0) + mu * grad_b
    vec2 = grad_f + (at @ lambda2 if ws.m else 0.0) + mu * grad_b_prev
    r1 = local_norm_dual(ws.factor, vec1, counters)
    r2 = local_norm_dual(ws.factor, vec2, counters)
    if r1 <= r2:
        which, res = "lambda1", r1
    else:
        which, res = "lambda2", r2
    return res <= (1.0 - beta) * mu, which, res


def _sgn(t: float) -> float:
    return 1.0 if t >= 0.0 else -1.0


def _beta_over(qnorm: float, beta: float) -> float:
    # delta / 0 is taken as +infinity
    return beta / qnorm if qnorm > 0.0 else math.inf


def scale_sol_direction(ws: IterationWorkspace, d_hat: np.ndarray, beta: float) -> np.ndarray:
    """min{1, beta / ||project(d_hat)||} d_hat; caps the local-norm step at beta."""
    if not np.any(d_hat):
        raise ZeroDirection("cannot scale a zero direction")
    qnorm = float(np.linalg.norm(ws.project(d_hat)))
    return min(1.0, _beta_over(qnorm, beta)) * d_hat


def scale_nc_direction(
    ws: IterationWorkspace,
    d_hat: np.ndarray,
    curvature: float,
    g: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Negative-curvature scaling; ``curvature`` is d^T H d / ||d||^2.

    The scaled step d satisfies g^T d <= 0 and, when the curvature term is the
    binding minimum, d^T H d <= -||d||^3.
    """
    if not np.any(d_hat):
        raise ZeroDirection("cannot scale a zero direction")
    d_norm = float(np.linalg.norm(d_hat))
    qnorm = float(np.linalg.norm(ws.project(d_hat)))
    factor = min(abs(curvature) / d_norm, _beta_over(qnorm, beta))
    return -_sgn(float(g @ d_hat)) * factor * d_hat


def scale_meo_direction(
    ws: IterationWorkspace,
    v: np.ndarray,
    curvature_phi: float,
    g: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Scaling for a unit oracle direction; ``curvature_phi`` is v^T H_phi v."""
    qnorm = float(np.linalg.norm(ws.project(v)))
    factor = min(abs(curvature_phi), _beta_over(qnorm, beta))
    return -_sgn(float(g @ v)) * factor * v


def _backtrack(
    problem: ConicProblem,
    ws: IterationWorkspace,
    mu: float,
    d: np.ndarray,
    decrease: float,
    params: SolverParams,
    counters: OpCounters | None,
    step: np.ndarray,
    phi0: float,
) -> tuple[float, np.ndarray, float]:
    """Backtrack from phi0 along ``step`` = null_step(d); ``decrease`` multiplies theta^{2j}."""
    if not np.any(d):
        raise ZeroDirection("line search requires a nonzero direction")
    x = ws.point
    for j in range(params.max_backtracks + 1):
        t = params.theta**j
        x_trial = x + t * step
        phi_trial = phi_value(problem, x_trial, mu, counters)
        if phi_trial < phi0 - decrease * t * t:
            return t, x_trial, phi_trial
    raise LineSearchFailure(
        f"no sufficient decrease within {params.max_backtracks} backtracking steps"
    )


def line_search_sol(
    problem: ConicProblem,
    ws: IterationWorkspace,
    mu: float,
    d: np.ndarray,
    params: SolverParams,
    counters: OpCounters | None = None,
    *,
    step: np.ndarray,
    phi0: float,
) -> tuple[float, np.ndarray, float]:
    """Quadratic decrease target eta sqrt(eps) theta^{2j} ||d||^2."""
    decrease = params.eta * math.sqrt(params.epsilon) * float(d @ d)
    return _backtrack(problem, ws, mu, d, decrease, params, counters, step, phi0)


def line_search_nc(
    problem: ConicProblem,
    ws: IterationWorkspace,
    mu: float,
    d: np.ndarray,
    params: SolverParams,
    counters: OpCounters | None = None,
    *,
    step: np.ndarray,
    phi0: float,
) -> tuple[float, np.ndarray, float]:
    """Cubic decrease target eta theta^{2j} ||d||^3 / 2."""
    decrease = params.eta * float(np.linalg.norm(d)) ** 3 / 2.0
    return _backtrack(problem, ws, mu, d, decrease, params, counters, step, phi0)


@dataclass
class _PrevState:
    """What iteration k keeps from iteration k - 1."""

    ws: IterationWorkspace
    grad_phi: np.ndarray
    grad_b: np.ndarray
    step: np.ndarray | None = None  # ambient step direction before the alpha scaling
    kind: DirectionKind = DirectionKind.NC
    alpha: float = 0.0
    lambda2: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _attach_certificate(problem: ConicProblem, result: SolveResult, params: SolverParams) -> None:
    eps = params.epsilon
    if result.status is SolveStatus.SOSP_CERTIFIED and problem.has_dense_hessian \
            and problem.n <= certify_mod.DESK_SCALE_LIMIT:
        report = certify_mod.check_sosp_dense(
            problem, result.x_final, result.lambda_final, eps_g=eps, eps_h=math.sqrt(eps)
        )
    else:
        report = certify_mod.check_fosp(problem, result.x_final, result.lambda_final, eps_g=eps)
    result.trace.certificate = report


def solve(problem: ConicProblem, x0: np.ndarray, params: SolverParams) -> SolveResult:
    """Run the barrier Newton-CG method from a strictly feasible x0."""
    x0 = np.asarray(x0, dtype=float)
    cone, affine = problem.cone, problem.affine
    n, m = problem.n, problem.m
    if x0.shape != (n,):
        raise InfeasibleStart(f"x0 has shape {x0.shape}, expected ({n},)")
    if not interior_membership(cone, x0, margin=INTERIOR_GUARD):
        raise InfeasibleStart("x0 is not strictly interior to the cone")
    b_scale = 1.0 + (float(np.max(np.abs(affine.b))) if m else 0.0)
    if m and float(np.max(np.abs(affine.A @ x0 - affine.b))) > params.feas_tol * b_scale:
        raise InfeasibleStart("x0 violates the equality constraints")

    counters = OpCounters()
    trace = SolveTrace()
    eps = params.epsilon
    beta = params.beta
    mu = mu_from_epsilon(eps, beta, cone.theta)
    sqrt_eps = math.sqrt(eps)
    rng = np.random.default_rng(params.seed)

    x = x0.copy()
    ws = IterationWorkspace(affine, barrier_factor(cone, x, counters), counters)
    phi = phi_value(problem, x, mu, counters)
    gb = barrier_gradient(cone, x)
    prev = _PrevState(ws=ws, grad_phi=np.zeros(n), grad_b=gb, lambda2=np.zeros(m))

    def finish(status, k, lam, prob=None, est=None):
        res = SolveResult(
            status=status,
            x_final=x.copy(),
            lambda_final=np.asarray(lam, dtype=float).reshape(m),
            iterations=k,
            mu=mu,
            trace=trace,
            probability_bound=prob,
            estimated_hess_norm=est,
        )
        trace.counters = counters.snapshot()
        _attach_certificate(problem, res, params)
        return res

    for k in range(params.max_outer_iters):
        grad_f = _checked_vector("gradient", problem.gradient(x), n)
        bump(counters, "grad_eval")
        grad_b = barrier_gradient(cone, x)
        gphi = grad_f + mu * grad_b

        lambda1 = ws.multipliers(gphi)
        # lambda2 from the previous Newton-step residual holds only after a unit SOL step
        if prev.kind is DirectionKind.SOL and prev.alpha == 1.0:
            hess_step = _checked_vector("hess_vec", problem.hess_vec(prev.ws.point, prev.step), n)
            bump(counters, "hess_vec")
            lambda2 = prev.ws.multipliers(hess_step + prev.grad_phi)
        else:
            lambda2 = prev.lambda2

        triggered, which, res_min = first_order_gate(
            ws, mu, beta, grad_f, grad_b, lambda1, lambda2, prev.grad_b, counters
        )

        def hess_vec_here(v, _x=x):
            return _checked_vector("hess_vec", problem.hess_vec(_x, v), n)

        def phi_hessian_op(v):
            return ws.reduced_hessian_apply(hess_vec_here, mu, v)

        def f_hessian_op(v):
            return ws.reduced_hessian_apply(hess_vec_here, 0.0, v)

        if not triggered:
            g = ws.null_step_t(gphi)
            cg_out = capped_cg(
                phi_hessian_op,
                g,
                CappedCgParams(epsilon=sqrt_eps, zeta=params.zeta),
            )
            d_hat = cg_out.direction
            if cg_out.kind is DirectionKind.NC:
                curv = nc_curvature(phi_hessian_op, d_hat)
                d = scale_nc_direction(ws, d_hat, curv, g, beta)
                branch, searcher = BRANCH_CG_NC, line_search_nc
            else:
                d = scale_sol_direction(ws, d_hat, beta)
                branch, searcher = BRANCH_CG_SOL, line_search_sol
            cg_iters, lanczos_iters = cg_out.iterations, 0
            kind = cg_out.kind
        else:
            lam = lambda1 if which == "lambda1" else lambda2
            if params.fosp_only:
                trace.add(IterationRecord(k, phi, res_min, BRANCH_TERMINATE, 0.0, 0.0, 0, 0))
                return finish(SolveStatus.FOSP_CERTIFIED, k, lam)
            oracle = min_eig_oracle(f_hessian_op, n, sqrt_eps, params.delta, rng)
            if not oracle.found_negative_curvature:
                trace.add(
                    IterationRecord(
                        k, phi, res_min, BRANCH_TERMINATE, 0.0, 0.0, 0, oracle.iterations
                    )
                )
                return finish(
                    SolveStatus.SOSP_CERTIFIED,
                    k,
                    lam,
                    prob=oracle.probability_bound,
                    est=oracle.estimated_norm,
                )
            v = oracle.direction
            g = ws.null_step_t(gphi)
            curvature_phi = oracle.curvature + mu * float(np.linalg.norm(ws.project(v))) ** 2
            d = scale_meo_direction(ws, v, curvature_phi, g, beta)
            branch, searcher = BRANCH_MEO_NC, line_search_nc
            cg_iters, lanczos_iters = 0, oracle.iterations
            kind = DirectionKind.NC

        step = ws.null_step(d)
        try:
            alpha, x_new, phi_new = searcher(
                problem, ws, mu, d, params, counters, step=step, phi0=phi
            )
        except LineSearchFailure:
            trace.add(
                IterationRecord(
                    k, phi, res_min, branch, 0.0, float(np.linalg.norm(d)), cg_iters, lanczos_iters
                )
            )
            return finish(SolveStatus.LINE_SEARCH_FAILURE, k, lambda1)

        trace.add(
            IterationRecord(
                k, phi, res_min, branch, alpha, float(np.linalg.norm(d)), cg_iters, lanczos_iters
            )
        )

        prev = _PrevState(
            ws=ws,
            grad_phi=gphi,
            grad_b=grad_b,
            step=step,
            kind=kind,
            alpha=alpha,
            lambda2=lambda2,
        )
        x = x_new
        if m:
            drift = float(np.max(np.abs(affine.A @ x - affine.b)))
            if drift > params.feas_tol * b_scale / 10.0:
                x = _reproject(affine, cone, x)
        ws = IterationWorkspace(affine, barrier_factor(cone, x, counters), counters)
        phi = phi_new

    return finish(SolveStatus.MAX_ITERS_EXCEEDED, params.max_outer_iters, lambda1)


def _reproject(affine, cone, x: np.ndarray) -> np.ndarray:
    """Least-squares correction back onto {Ax = b}; must stay interior."""
    residual = affine.A @ x - affine.b
    correction = affine.A.T @ np.linalg.solve(affine.A @ affine.A.T, residual)
    x_new = x - correction
    if not interior_membership(cone, x_new, margin=INTERIOR_GUARD):
        raise DivergenceError(
            "feasibility cannot be maintained at the current iterate scale; the "
            "objective may be unbounded below on the feasible set (consider the "
            "quadratic perturbation wrapper)"
        )
    return x_new
