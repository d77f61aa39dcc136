"""Cone geometry and logarithmically homogeneous barrier functions.

Supported cones are Cartesian products of nonnegative orthants and
second-order (Lorentz) cones.  Each block carries its canonical barrier:

* orthant of dimension d:  B(x) = -sum_i ln x_i,          parameter d
* second-order cone (t,u): B(t,u) = -ln(t^2 - ||u||^2),   parameter 2

Values, gradients, Hessians and the barrier parameter are additive across
blocks, and every barrier entry point walks the blocks through one
strict-interiority check.  All local-norm computations go through the lower
Cholesky factor L of the barrier Hessian, nabla^2 B(x) = L L^T, which is
block diagonal.  ``BarrierFactor`` stores it one block at a time, and this
module is the only one that knows that format:

* orthant block: the diagonal 1/x_b of L_b;
* second-order cone block (t, u) with gap gamma = (t - ||u||)(t + ||u||):
  the Hessian is D + (4/gamma^2) w w^T with D = (2/gamma) diag(-1, 1, ..., 1)
  and w = (t, -u), so its exact Cholesky factor is semiseparable,
  L_b = (I + tril(w beta^T, -1)) diag(sqrt(dbar)), by the rank-one LDL^T
  update of Gill, Golub, Murray & Saunders (Math. Comp. 1974).  It is built
  from suffix sums of u_k^2 in O(d) and stored as four d-vectors; both
  triangular solves are O(d) cumulative sums, and no d x d array is formed.

Everything else applies L through ``BarrierFactor.solve_lower`` and
``solve_upper``:

* primal local norm  ||v||_x  = ||L^T v||
* dual local norm    ||v||_x* = ||L^{-1} v||  (one forward substitution)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .counters import OpCounters, bump
from .errors import BoundaryError, FactorizationError

ORTHANT = "orthant"
SOC = "soc"


@dataclass(frozen=True)
class ConeBlock:
    kind: str
    dim: int

    def __post_init__(self) -> None:
        if self.kind not in (ORTHANT, SOC):
            raise ValueError(f"unknown cone block kind: {self.kind!r}")
        if self.dim < 1:
            raise ValueError("cone block dimension must be positive")
        if self.kind == SOC and self.dim < 2:
            raise ValueError("second-order cone blocks need dimension >= 2")

    @property
    def barrier_parameter(self) -> float:
        return float(self.dim) if self.kind == ORTHANT else 2.0


@dataclass(frozen=True)
class Cone:
    """Ordered product of orthant and second-order cone blocks."""

    blocks: tuple[ConeBlock, ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("a cone needs at least one block")

    @property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def theta(self) -> float:
        """Barrier parameter of the product barrier (>= 1)."""
        return sum(b.barrier_parameter for b in self.blocks)

    def slices(self) -> Iterator[tuple[ConeBlock, slice]]:
        start = 0
        for block in self.blocks:
            yield block, slice(start, start + block.dim)
            start += block.dim

    def describe(self) -> list[dict]:
        """JSON-ready block list, the wire format used in problem files."""
        return [{"type": b.kind, "dim": b.dim} for b in self.blocks]


def orthant(dim: int) -> Cone:
    return Cone((ConeBlock(ORTHANT, dim),))


def second_order(dim: int) -> Cone:
    return Cone((ConeBlock(SOC, dim),))


def product(*blocks: ConeBlock) -> Cone:
    return Cone(tuple(blocks))


def cone_from_description(desc: list[dict]) -> Cone:
    return Cone(tuple(ConeBlock(d["type"], int(d["dim"])) for d in desc))


def _check_dim(cone: Cone, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.total_dim,):
        raise ValueError(f"expected vector of length {cone.total_dim}, got shape {x.shape}")
    return x


def _soc_gap(xb: np.ndarray) -> float:
    """t^2 - ||u||^2 for a second-order cone block (t, u), as (t - ||u||)(t + ||u||).

    Every barrier entry point and the factor read the gap from here.  For
    t > 0 its sign is the sign of t - ||u|| (barring underflow), so the
    strict-interiority check agrees with ``interior_membership`` at margin 0.
    """
    t, r = float(xb[0]), float(np.linalg.norm(xb[1:]))
    return (t - r) * (t + r)


def interior_membership(cone: Cone, x: np.ndarray, margin: float = 0.0) -> bool:
    """True iff x is interior with slack: orthant entries > margin, SOC gaps t - ||u|| > margin."""
    x = _check_dim(cone, x)
    for block, sl in cone.slices():
        xb = x[sl]
        if block.kind == ORTHANT:
            if not np.all(xb > margin):
                return False
        else:
            if xb[0] - np.linalg.norm(xb[1:]) <= margin:
                return False
    return True


def dual_membership(cone: Cone, s: np.ndarray, tol: float = 0.0) -> bool:
    """Dual-cone membership up to tol per block; both block types are self-dual."""
    s = _check_dim(cone, s)
    for block, sl in cone.slices():
        sb = s[sl]
        if block.kind == ORTHANT:
            if np.any(sb < -tol):
                return False
        else:
            if sb[0] + tol < np.linalg.norm(sb[1:]):
                return False
    return True


def _interior_blocks(cone: Cone, x: np.ndarray) -> Iterator[tuple[ConeBlock, slice, np.ndarray]]:
    """(block, slice, x_block) per block of a dimension-checked x.

    The one strict-interiority check behind every barrier entry point:
    raises BoundaryError at the first block that x does not lie inside.
    """
    for block, sl in cone.slices():
        xb = x[sl]
        if block.kind == ORTHANT:
            if np.any(xb <= 0.0):
                raise BoundaryError("orthant component not strictly positive")
        elif xb[0] <= 0.0 or _soc_gap(xb) <= 0.0:
            raise BoundaryError("point not interior to second-order cone block")
        yield block, sl, xb


def barrier_value(cone: Cone, x: np.ndarray) -> float:
    total = 0.0
    for block, _, xb in _interior_blocks(cone, _check_dim(cone, x)):
        if block.kind == ORTHANT:
            total -= float(np.sum(np.log(xb)))
        else:
            total -= float(np.log(_soc_gap(xb)))
    return total


def barrier_gradient(cone: Cone, x: np.ndarray) -> np.ndarray:
    x = _check_dim(cone, x)
    grad = np.empty_like(x)
    for block, sl, xb in _interior_blocks(cone, x):
        if block.kind == ORTHANT:
            grad[sl] = -1.0 / xb
        else:
            gap = _soc_gap(xb)
            grad[sl.start] = -2.0 * xb[0] / gap
            grad[sl.start + 1:sl.stop] = 2.0 * xb[1:] / gap
    return grad


def _soc_hessian(xb: np.ndarray) -> np.ndarray:
    # (2/gap) * diag(-1, 1, ..., 1) + (4/gap^2) * w w^T with w = (t, -u)
    gap = _soc_gap(xb)
    d = xb.shape[0]
    w = xb.copy()
    w[1:] *= -1.0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            hess = (4.0 / gap**2) * np.outer(w, w)
            hess[np.arange(d), np.arange(d)] += 2.0 / gap
            hess[0, 0] -= 4.0 / gap
        finite = bool(np.all(np.isfinite(hess)))
    except ArithmeticError:  # gap**2 underflows to 0 or overflows
        finite = False
    if not finite:
        raise FactorizationError(
            "second-order cone barrier Hessian is not finite (point at an extreme scale)"
        )
    return hess


def barrier_hessian(cone: Cone, x: np.ndarray) -> np.ndarray:
    """Dense barrier Hessian; block diagonal with small dense SOC blocks."""
    n = cone.total_dim
    hess = np.zeros((n, n))
    for block, sl, xb in _interior_blocks(cone, _check_dim(cone, x)):
        if block.kind == ORTHANT:
            idx = np.arange(sl.start, sl.stop)
            hess[idx, idx] = 1.0 / xb**2
        else:
            hess[sl, sl] = _soc_hessian(xb)
    return hess


@dataclass(frozen=True)
class SocFactor:
    """Exact lower Cholesky factor of one second-order cone block's barrier Hessian.

    L = (I + tril(w beta^T, -1)) diag(root) with beta = q / root^2, and the
    unit lower part has the inverse I - tril(q p^T, -1).  So L^{-1} v and
    L^{-T} v are one shifted cumulative sum each, for a vector or a d x m
    matrix, and the factor is four d-vectors.
    """

    root: np.ndarray  # sqrt(dbar), the diagonal of L
    w: np.ndarray  # (t, -u)
    p: np.ndarray  # w / D
    q: np.ndarray  # w / ia, with ia_j = 1 / alpha_j of the rank-one update

    @property
    def dense(self) -> np.ndarray:
        """The d x d factor L, assembled on each access (for tests and views)."""
        return np.tril(np.outer(self.w, self.q / self.root), -1) + np.diag(self.root)


def _soc_factor(xb: np.ndarray) -> SocFactor:
    """O(d) factor of (2/gap) diag(-1, 1, ..., 1) + (4/gap^2) w w^T at an interior xb.

    The rank-one LDL^T update of Gill, Golub, Murray & Saunders runs through
    ia_j = 1/alpha_j = ia_{j-1} + w_{j-1}^2 / D_{j-1}.  In closed form
    ia_0 = gap^2/4 and ia_j = -(gap/4)(gap + 2 sum_{k>=j} u_k^2) for j >= 1,
    taken from suffix sums so that nothing cancels; then
    dbar_j = D_j ia_{j+1} / ia_j.
    """
    gap, d = _soc_gap(xb), xb.shape[0]
    w = xb.copy()
    w[1:] *= -1.0
    diag = np.full(d, 2.0 / gap)
    diag[0] = -diag[0]
    tail = np.zeros(d)  # tail[j - 1] = sum_{k>=j} u_k^2 for j = 1..d
    tail[:-1] = np.cumsum(xb[:0:-1] ** 2)[::-1]
    ia = np.empty(d + 1)
    ia[0] = gap * gap / 4.0
    ia[1:] = -(gap / 4.0) * (gap + 2.0 * tail)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dbar = diag * ia[1:] / ia[:-1]
    if not np.all(np.isfinite(dbar) & (dbar > 0.0)):
        raise FactorizationError(
            "second-order cone barrier Hessian has a non-finite or non-positive pivot "
            "(point at an extreme scale)"
        )
    return SocFactor(root=np.sqrt(dbar), w=w, p=w / diag, q=w / ia[:-1])


def _exclusive_cumsum(terms: np.ndarray, reverse: bool) -> np.ndarray:
    """sum_{j<i} terms_j (sum_{j>i} when reverse) along axis 0, as a shifted cumsum.

    ``np.add.accumulate`` is the ufunc behind ``np.cumsum``, without its
    dispatch overhead, which dominates at the block sizes solved here.
    """
    if reverse:
        terms = terms[::-1]
    out = np.add.accumulate(terms, axis=0)
    out[1:] = out[:-1]
    out[0] = 0.0
    return out[::-1] if reverse else out


def _block_solve(kind: str, f: np.ndarray | SocFactor, v: np.ndarray, lower: bool) -> np.ndarray:
    """L_b^{-1} v (lower) or L_b^{-T} v (upper) for one block factor f."""
    if kind == ORTHANT:  # L_b = diag(f), so both solves are one division
        return v / f if v.ndim == 1 else v / f[:, None]
    root, p, q = f.root, f.p, f.q
    if v.ndim == 2:
        root, p, q = root[:, None], p[:, None], q[:, None]
    if lower:  # z_i = v_i - q_i sum_{j<i} p_j v_j, then divide by root
        return (v - q * _exclusive_cumsum(p * v, reverse=False)) / root
    y = v / root  # then y_j - p_j sum_{i>j} q_i y_i
    return y - p * _exclusive_cumsum(q * y, reverse=True)


@dataclass(frozen=True)
class BarrierFactor:
    """Point x with the block-diagonal lower Cholesky factor L of the barrier Hessian.

    ``blocks`` holds one factor per cone block, in block order: the vector
    1/x_b (the diagonal of L_b) for an orthant block and a ``SocFactor`` for
    a second-order cone block.  That format is known only to this module;
    callers use ``solve_lower``/``solve_upper``.  Immutable after
    construction and safe to share between threads.
    """

    cone: Cone
    point: np.ndarray
    blocks: tuple[np.ndarray | SocFactor, ...]

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    @property
    def lower(self) -> np.ndarray:
        """Dense L with L L^T = nabla^2 B(point), assembled on each access."""
        lower = np.zeros((self.dim, self.dim))
        for (block, sl), f in zip(self.cone.slices(), self.blocks):
            lower[sl, sl] = np.diag(f) if block.kind == ORTHANT else f.dense
        return lower

    def _solve(self, v: np.ndarray, lower: bool) -> np.ndarray:
        if len(self.blocks) == 1:
            return _block_solve(self.cone.blocks[0].kind, self.blocks[0], v, lower)
        out = np.empty_like(v, dtype=float)
        for (block, sl), f in zip(self.cone.slices(), self.blocks):
            out[sl] = _block_solve(block.kind, f, v[sl], lower)
        return out

    def solve_lower(self, v: np.ndarray) -> np.ndarray:
        """L^{-1} v for a vector or an n x m matrix; forward substitution."""
        return self._solve(v, lower=True)

    def solve_upper(self, v: np.ndarray) -> np.ndarray:
        """L^{-T} v for a vector or an n x m matrix; backward substitution."""
        return self._solve(v, lower=False)


def barrier_factor(cone: Cone, x: np.ndarray, counters: OpCounters | None = None) -> BarrierFactor:
    """Factor the barrier Hessian at an interior point; counts one Cholesky."""
    x = _check_dim(cone, x)
    blocks = [
        1.0 / xb if block.kind == ORTHANT else _soc_factor(xb)
        for block, _, xb in _interior_blocks(cone, x)
    ]
    bump(counters, "cholesky")
    return BarrierFactor(cone=cone, point=x.copy(), blocks=tuple(blocks))


def local_norm_primal(factor: BarrierFactor, v: np.ndarray) -> float:
    """||v||_x = ||L^T v||; zero iff v = 0."""
    return float(np.linalg.norm(factor.lower.T @ v))


def local_norm_dual(factor: BarrierFactor, v: np.ndarray, counters: OpCounters | None = None) -> float:
    """||v||_x* = ||L^{-1} v||; one forward substitution."""
    w = factor.solve_lower(v)
    bump(counters, "tri_solve")
    return float(np.linalg.norm(w))
