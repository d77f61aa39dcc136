import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from conebarrier.capped_cg import CappedCgResult, DirectionKind, _monitors
from conebarrier.certify import dual_norm
from conebarrier.cones import (
    ORTHANT, BarrierFactor, Cone, ConeBlock, SocFactor, orthant, product, second_order,
)
from conebarrier.errors import HardCapExceeded, ZeroGradient
from conebarrier.counters import CATEGORIES
from conebarrier.lanczos import _POWER_ITERS, CERTIFIED, NC, MeoOutcome, lanczos_iteration_cap
from conebarrier.solver import SolveStatus
from conebarrier.trace import BRANCH_CG_NC, BRANCH_CG_SOL, BRANCH_TERMINATE, BRANCHES


CONE_FAMILIES = [
    orthant(2),
    orthant(10),
    orthant(50),
    second_order(2),
    second_order(5),
    second_order(20),
    product(ConeBlock("orthant", 3), ConeBlock("soc", 4), ConeBlock("orthant", 2),
            ConeBlock("soc", 2)),
]


def random_interior_point(cone: Cone, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Strictly interior sample with a healthy margin in every block."""
    x = np.empty(cone.total_dim)
    for block, sl in cone.slices:
        if block.kind == ORTHANT:
            x[sl] = scale * np.exp(0.5 * rng.standard_normal(block.dim))
        else:
            u = rng.standard_normal(block.dim - 1)
            x[sl][1:] = u
            x[sl.start] = np.linalg.norm(u) + scale * (0.2 + np.abs(rng.standard_normal()))
    return x


def block_factors(factor: BarrierFactor) -> list:
    """(block, slice of x, f) per cone block, in block order, cut from the factor's groups.

    f is the block's factor as a one-block cone stores it: the diagonal 1/x_b
    of L_b for an orthant block, and for a second-order cone block a
    ``SocFactor`` of d-vectors with an int exponent, row i of its group's
    k x d stack when the cone has k >= 2 blocks of that dimension.
    """
    orthant_diag = np.empty(factor.point.shape[0])
    soc = {}
    for (kind, index, rows), f in zip(factor.cone.groups, factor.factors):
        if kind == ORTHANT:
            orthant_diag[index] = f
        else:
            soc[f.root.shape[-1]] = f
    taken = dict.fromkeys(soc, 0)
    out = []
    for block, sl in factor.cone.slices:
        if block.kind == ORTHANT:
            out.append((block, sl, orthant_diag[sl]))
            continue
        f = soc[block.dim]
        if f.root.ndim == 2:
            i = taken[block.dim]
            taken[block.dim] += 1
            f = SocFactor(**{field.name: getattr(f, field.name)[i] for field in fields(SocFactor)
                             if field.name != "exponent"}, exponent=int(f.exponent[i, 0]))
        out.append((block, sl, f))
    return out


def dense_lower(factor: BarrierFactor) -> np.ndarray:
    """Dense L with L L^T = nabla^2 B(point), assembled from the factor's blocks.

    An orthant block stores the diagonal of L_b.  A second-order cone block
    stores root = 2^-e root_y, the diagonal, and w, q at y's scale; below the
    diagonal, L_ij = 2^-e w_i q_j / root_y,j = 4^-e w_i q_j / root_j.
    """
    n = factor.point.shape[0]
    lower = np.zeros((n, n))
    for block, sl, f in block_factors(factor):
        if block.kind == ORTHANT:
            lower[sl, sl] = np.diag(f)
        else:
            below = np.ldexp(np.outer(f.w, f.q / f.root), -2 * f.exponent)
            lower[sl, sl] = np.tril(below, -1) + np.diag(f.root)
    return lower


def exact_difference(x_next: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_next - x with no rounding, as an object array of Fractions."""
    return np.array([Fraction(a) - Fraction(b) for a, b in zip(x_next, x)], dtype=object)


def local_norm_squared(cone: Cone, x: np.ndarray, v: np.ndarray) -> Fraction:
    """v^T nabla^2 B(x) v, exactly, for a float point x and a float or Fraction step v.

    An SOC block's Hessian is -2J/gamma + 4 (Jx)(Jx)^T / gamma^2 with
    J = diag(1, -1, ..., -1) and gamma = x^T J x.  In floating point this form
    cancels near an SOC boundary (see ``test_dense_local_norm_cancels_near_an_soc_boundary``).
    """
    total = Fraction(0)
    for block, sl in cone.slices:
        xb = [Fraction(a) for a in x[sl]]
        vb = [Fraction(a) for a in v[sl]]
        if block.kind == ORTHANT:
            total += sum((vi / xi) ** 2 for vi, xi in zip(vb, xb))
            continue
        gap = xb[0] ** 2 - sum(ui * ui for ui in xb[1:])
        xjv = xb[0] * vb[0] - sum(ui * wi for ui, wi in zip(xb[1:], vb[1:]))
        vjv = vb[0] ** 2 - sum(wi * wi for wi in vb[1:])
        total += 2 * (2 * xjv**2 - gap * vjv) / gap**2
    return total


def primal_local_norm(cone: Cone, x: np.ndarray, v: np.ndarray) -> float:
    """||v||_x = sqrt(v^T nabla^2 B(x) v), from the exact form rounded once, not the factor."""
    return math.sqrt(local_norm_squared(cone, x, v))


def scaled_residuals(problem, x: np.ndarray, lam: np.ndarray, weights: np.ndarray):
    """First-order residual before and after the change of variables x = W y.

    ``weights`` is the diagonal of W, positive and constant within each
    second-order cone block, so that W^{-1} K = K.  With s = grad f(x) + A^T lam
    the transformed problem min f(Wy) s.t. (AW) y = b has gradient W s at
    y = W^{-1} x, and its barrier y -> B(Wy) differs from B(y) by a constant,
    so its residual is the dual norm of W s at y.
    """
    s = problem.gradient(x) + problem.affine.A.T @ lam
    return dual_norm(problem.cone, x, s), dual_norm(problem.cone, x / weights, weights * s)


def iteration_bound(result, n: int) -> int:
    """min{n, J} for a capped-CG result, J the smallest integer with sqrt(T) tau^{J/2} <= zeta_hat."""
    ratio = np.sqrt(result.cap_t) / result.zeta_hat
    if ratio <= 1.0:
        j = 0
    else:
        j = int(np.ceil(2.0 * np.log(ratio) / np.log(1.0 / result.tau)))
    return min(n, j)


def norm2(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float array; bit-equal to ``np.linalg.norm(v)``, which flattens v
    in memory order (a copy only for a strided view) and returns sqrt(v . v)."""
    v = v.ravel(order="K")
    return math.sqrt(v.dot(v))


def paired(matvec):
    """The operator v -> (matvec(v), 0.0): the product-and-coefficient contract of
    ``capped_cg`` and ``min_eig_oracle``, with no coefficient."""
    return lambda v: (matvec(v), 0.0)


REFERENCE_CG_EXITS = ("preloop_nc", "y_nc", "sol", "p_nc", "growth", "growth_rescan")


def reference_capped_cg(matvec, g: np.ndarray, eps: float, zeta: float) -> tuple[CappedCgResult, str]:
    """Capped CG as first written, for comparison with ``capped_cg.capped_cg``, and its exit.

    It starts from explicit zero vectors y^0 = H y^0 = 0, forms zeta_hat, tau
    and T at entry and again after every raise of U, and forms p^T (H + 2 eps I) p
    before the y-NC and SOL tests.  Same exits, in the same order; the exit is one
    of ``REFERENCE_CG_EXITS``, and a failed residual-growth scan or the hard cap
    raises HardCapExceeded.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    rr = float(g.dot(g))
    g_norm = math.sqrt(rr)
    if g_norm == 0.0:
        raise ZeroGradient("capped CG requires a nonzero right-hand side")
    hard_cap = 10 * n + 100

    p = -g
    hp = matvec(p)
    quad_p = float(p.dot(hp)) + 2.0 * eps * rr
    if quad_p < eps * rr:
        return CappedCgResult(DirectionKind.NC, p, 0, *_monitors(0.0, eps, zeta)), "preloop_nc"
    u = math.sqrt(hp.dot(hp)) / g_norm
    zeta_hat, tau, cap_t = _monitors(u, eps, zeta)

    y = np.zeros(n)
    hy = np.zeros(n)
    r = g
    ys = [y]
    hys = [hy]
    j = 0
    while True:
        alpha = rr / quad_p
        y = y + alpha * p
        hy = hy + alpha * hp
        r_new = r + alpha * (hp + 2.0 * eps * p)
        rr_new = float(r_new.dot(r_new))
        beta = rr_new / rr
        hr = matvec(r_new)
        p = beta * p - r_new
        hp = beta * hp - hr
        r, rr = r_new, rr_new
        j += 1
        if j > hard_cap:
            raise HardCapExceeded(f"capped CG exceeded the hard cap of {hard_cap} iterations")
        ys.append(y)
        hys.append(hy)

        p_norm = math.sqrt(p.dot(p))
        y_norm = math.sqrt(y.dot(y))
        r_norm = math.sqrt(rr)
        u_prev = u
        for hv, v_norm in ((hp, p_norm), (hy, y_norm), (hr, r_norm)):
            if v_norm > 0.0:
                hv_norm = math.sqrt(hv.dot(hv))
                if hv_norm > u * v_norm:
                    u = hv_norm / v_norm
        if u != u_prev:
            zeta_hat, tau, cap_t = _monitors(u, eps, zeta)

        quad_y = float(y.dot(hy)) + 2.0 * eps * y_norm**2
        quad_p = float(p.dot(hp)) + 2.0 * eps * p_norm**2
        if quad_y < eps * y_norm**2:
            kind, direction, exit_ = DirectionKind.NC, y, "y_nc"
            break
        if r_norm <= zeta_hat * g_norm:
            kind, direction, exit_ = DirectionKind.SOL, y, "sol"
            break
        if quad_p < eps * p_norm**2:
            kind, direction, exit_ = DirectionKind.NC, p, "p_nc"
            break
        if r_norm > math.sqrt(cap_t) * tau ** (j / 2.0) * g_norm:
            alpha = rr / quad_p
            y_next = y + alpha * p
            hy_next = hy + alpha * hp
            kind = DirectionKind.NC
            direction, exit_ = _reference_backtrack_nc(ys, hys, y_next, hy_next, eps, matvec)
            break
    return CappedCgResult(kind, direction, j, zeta_hat, tau, cap_t), exit_


def _reference_backtrack_nc(ys, hys, y_next, hy_next, eps, matvec) -> tuple[np.ndarray, str]:
    """The residual-growth scan of y_next - y_i, i < j: tracked products, then fresh ones."""
    for i in range(len(ys) - 1):
        dy = y_next - ys[i]
        dy_sq = float(dy.dot(dy))
        quad = float(dy.dot(hy_next - hys[i])) + 2.0 * eps * dy_sq
        if quad < eps * dy_sq:
            return dy, "growth"
    for i in range(len(ys) - 1):
        dy = y_next - ys[i]
        dy_sq = float(dy.dot(dy))
        quad = float(dy.dot(matvec(dy))) + 2.0 * eps * dy_sq
        if quad < eps * dy_sq:
            return dy, "growth_rescan"
    raise HardCapExceeded("residual-growth exit found no negative-curvature difference")


def tridiagonal_min_ritz(alphas: np.ndarray, betas: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of the symmetric tridiagonal matrix (unit eigenvector)."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.size == 0:
        raise ValueError("need at least one diagonal entry")
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    vals, vecs = np.linalg.eigh(tri)
    coeffs = vecs[:, 0]
    return float(vals[0]), coeffs / np.linalg.norm(coeffs)


def reference_lanczos(matvec, n: int, eps: float, delta: float, seed=0) -> MeoOutcome:
    """The Lanczos half of the oracle as randomized Lanczos states it, for comparison.

    Full reorthogonalization, the smallest Ritz pair of T_k after every step
    and a verifying matvec on the Ritz vector; same random start, cap and
    breakdown rule as ``lanczos.min_eig_oracle``.  Returns NC with the
    direction, or CERTIFIED with no bound (the power iteration is not run).
    """
    rng = np.random.default_rng(seed)
    cap = lanczos_iteration_cap(n, eps, delta)
    basis = np.zeros((n, cap))
    alphas = np.zeros(cap)
    betas = np.zeros(max(cap - 1, 0))
    q = rng.standard_normal(n)
    basis[:, 0] = q / np.linalg.norm(q)
    beta_prev = 0.0
    iterations = 0
    for k in range(cap):
        w = matvec(basis[:, k])
        iterations = k + 1
        alphas[k] = float(basis[:, k] @ w)
        w = w - alphas[k] * basis[:, k]
        if k > 0:
            w = w - beta_prev * basis[:, k - 1]
        w = w - basis[:, : k + 1] @ (basis[:, : k + 1].T @ w)
        theta, coeffs = tridiagonal_min_ritz(alphas[: k + 1], betas[:k])
        if theta <= -eps / 2.0:
            v = basis[:, : k + 1] @ coeffs
            v = v / np.linalg.norm(v)
            curvature = float(v @ matvec(v))
            if curvature <= -eps / 2.0:
                return MeoOutcome(kind=NC, iterations=iterations, direction=v, curvature=curvature)
        beta_prev = np.linalg.norm(w)
        if k + 1 >= cap or beta_prev <= 1e-12 * max(1.0, np.max(np.abs(alphas[: k + 1]))):
            break
        betas[k] = beta_prev
        basis[:, k + 1] = w / beta_prev
    return MeoOutcome(kind=CERTIFIED, iterations=iterations)


def dense_operators(A: np.ndarray, lower: np.ndarray):
    """Explicit projection/multiplier matrices for small problems.

    Returns (M, Q, P, R) assembled densely from the factor and constraints,
    independent of the workspace's triangular-solve path.
    """
    m_mat = np.linalg.inv(lower).T
    if A.shape[0] == 0:
        n = lower.shape[0]
        return m_mat, np.eye(n), m_mat.copy(), np.zeros((0, n))
    n_mat = m_mat.T @ A.T
    schur = A @ m_mat @ m_mat.T @ A.T
    schur_inv = np.linalg.inv(schur)
    q_mat = np.eye(lower.shape[0]) - n_mat @ schur_inv @ n_mat.T
    p_mat = m_mat @ q_mat
    r_mat = -schur_inv @ A @ m_mat @ m_mat.T
    return m_mat, q_mat, p_mat, r_mat


class SolveSpy:
    """What a solve's counters depend on that its trace does not record.

    Installed with ``monkeypatch`` around ``solve``: ``unit_steps`` counts the
    direction scalings that returned exactly 1.0 (a step taken from the
    projection at hand; any other scale projects afresh), and ``replay_products``
    counts the products of the replays that capped CG's residual-growth exit runs.
    ``solve`` holds its own reference to ``capped_cg``, so only the replays, which
    capped CG starts through its module's name, reach the counting wrapper.
    """

    def __init__(self, monkeypatch) -> None:
        from conebarrier import capped_cg as cg_module
        from conebarrier import solver

        self.unit_steps = 0
        self.replay_products = 0
        capped_cg = cg_module.capped_cg

        def scaled(fn):
            def spy(*args):
                c = fn(*args)
                self.unit_steps += c == 1.0
                return c
            return spy

        def replay(matvec, g, eps, zeta, *, _scan):
            def counted(v):
                self.replay_products += 1
                return matvec(v)
            return capped_cg(counted, g, eps, zeta, _scan=_scan)

        monkeypatch.setattr(solver, "_sol_scale", scaled(solver._sol_scale))
        monkeypatch.setattr(solver, "_curvature_scale", scaled(solver._curvature_scale))
        monkeypatch.setattr(cg_module, "capped_cg", replay)


def rebuilt_counters(result, m: int, params, spy: SolveSpy) -> dict[str, int]:
    """The six counters of a solve, rebuilt from its trace, m and README's per-item costs.

    Reads the trace columns ``branch``, ``alpha``, ``cg_iters`` and
    ``lanczos_iters`` and, from ``spy``, which steps were unit-scaled.  Per
    iteration: a gradient; ``null_step_t`` of the merit gradient, 3 substitutions
    (1 when m = 0); the gate's second residual, 1; per reduced product 6
    substitutions (2); ``project`` of the direction, 2 (0); and the step, 1 from
    that projection when the scale is 1.0 and 3 (1) from a fresh ``null_step``
    otherwise.  A CG step spends 1 + cg_iters products, its NC curvature none of
    its own.  lambda2, and lambda1 at a stop or a line-search failure, are minus
    range coefficients already formed and cost nothing; lambda1 at
    ``max_outer_iters`` costs a gradient and 3 substitutions.  Each accepted step
    with ``alpha = theta^j`` takes j + 1 merit values and builds one workspace: one
    ``cholesky``, and with m >= 1 one ``matT_mat`` and m substitutions.  The
    products of capped CG's residual-growth replays, which the trace does not
    show, come from ``spy``, each a reduced product.  Raises ValueError for a
    certifying oracle whose norm estimate stopped its power iteration early.
    """
    if result.status is SolveStatus.SOSP_CERTIFIED and not result.estimated_hess_norm:
        raise ValueError("the norm estimate stopped its power iteration early")
    trace = result.trace
    proj = 2 if m else 0  # substitutions of one projection
    product = 2 + 2 * proj  # of one reduced product
    lambda1 = 3 if m else 0  # of the multiplier estimate at max_outer_iters
    counts = dict.fromkeys(CATEGORIES, 0)
    counts["fun_eval"] = builds = 1
    steps = 0
    rows = zip(trace.branch, trace.alpha, trace.cg_iters, trace.lanczos_iters)
    for code, alpha, cg_iters, lanczos_iters in rows:
        branch = BRANCHES[code]
        counts["grad_eval"] += 1
        counts["tri_solve"] += 1 + proj + 1
        if branch == BRANCH_TERMINATE:
            products = lanczos_iters
            if result.status is SolveStatus.SOSP_CERTIFIED:
                products += _POWER_ITERS
            counts["hess_vec"] += products
            counts["tri_solve"] += product * products
            continue
        if branch in (BRANCH_CG_SOL, BRANCH_CG_NC):
            products = 1 + cg_iters
        else:
            products = lanczos_iters
        counts["hess_vec"] += products
        counts["tri_solve"] += product * products + proj + 1
        steps += 1
        if alpha == 0.0:  # the line search failed
            counts["fun_eval"] += params.max_backtracks + 1
        else:
            counts["fun_eval"] += round(math.log(alpha) / math.log(params.theta)) + 1
            builds += 1
    counts["hess_vec"] += spy.replay_products
    counts["tri_solve"] += proj * (steps - spy.unit_steps) + m * builds + product * spy.replay_products
    if result.status is SolveStatus.MAX_ITERS_EXCEEDED and m:
        counts["grad_eval"] += 1  # lambda1 at x_final
        counts["tri_solve"] += lambda1
    counts["cholesky"] = builds
    counts["matT_mat"] = builds if m else 0
    return counts


@pytest.fixture
def solve_spy(monkeypatch):
    return SolveSpy(monkeypatch)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
