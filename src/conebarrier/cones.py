"""Cone geometry and logarithmically homogeneous barrier functions.

Supported cones are Cartesian products of nonnegative orthants and
second-order (Lorentz) cones.  Each block carries its canonical barrier:

* orthant of dimension d:  B(x) = -sum_i ln x_i,          parameter d
* second-order cone (t,u): B(t,u) = -ln(t^2 - ||u||^2),   parameter 2

Values, gradients, Hessians and the barrier parameter are additive across
blocks, and every barrier entry point walks the blocks through one
strict-interiority check.  All local-norm computations go through the lower
Cholesky factor L of the barrier Hessian, nabla^2 B(x) = L L^T, which is
block diagonal.  ``BarrierFactor`` stores it one block at a time (the
diagonal 1/x_b of an orthant block, the dense factor of a second-order cone
block); this module is the only one that knows that format.  Everything else
applies L through ``BarrierFactor.solve_lower`` and ``solve_upper``:

* primal local norm  ||v||_x  = ||L^T v||
* dual local norm    ||v||_x* = ||L^{-1} v||  (one forward substitution)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.linalg import solve_triangular

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
    """t^2 - ||u||^2 for a second-order cone block (t, u)."""
    t = xb[0]
    return float(t * t - np.dot(xb[1:], xb[1:]))


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
    hess = (4.0 / gap**2) * np.outer(w, w)
    hess[np.arange(d), np.arange(d)] += 2.0 / gap
    hess[0, 0] -= 4.0 / gap
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


def _block_solve(kind: str, f: np.ndarray, v: np.ndarray, lower: bool) -> np.ndarray:
    """L_b^{-1} v (lower) or L_b^{-T} v (upper) for one block factor f."""
    if kind == ORTHANT:  # L_b = diag(f), so both solves are one division
        return v / f if v.ndim == 1 else v / f[:, None]
    if lower:
        return solve_triangular(f, v, lower=True, check_finite=False)
    return solve_triangular(f.T, v, lower=False, check_finite=False)


@dataclass(frozen=True)
class BarrierFactor:
    """Point x with the block-diagonal lower Cholesky factor L of the barrier Hessian.

    ``blocks`` holds one factor per cone block, in block order: the vector
    1/x_b (the diagonal of L_b) for an orthant block and the dense lower
    Cholesky factor L_b for a second-order cone block.  That format is known
    only to this module; callers use ``solve_lower``/``solve_upper``.
    Immutable after construction and safe to share between threads.
    """

    cone: Cone
    point: np.ndarray
    blocks: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    @property
    def lower(self) -> np.ndarray:
        """Dense L with L L^T = nabla^2 B(point), assembled on each access."""
        lower = np.zeros((self.dim, self.dim))
        for (block, sl), f in zip(self.cone.slices(), self.blocks):
            lower[sl, sl] = np.diag(f) if block.kind == ORTHANT else f
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
    blocks = []
    for block, _, xb in _interior_blocks(cone, x):
        if block.kind == ORTHANT:
            blocks.append(1.0 / xb)
            continue
        try:
            blocks.append(np.linalg.cholesky(_soc_hessian(xb)))
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                "barrier Hessian block numerically indefinite (point near boundary)"
            ) from exc
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
