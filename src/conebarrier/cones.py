"""Cone geometry and logarithmically homogeneous barrier functions.

Supported cones are Cartesian products of nonnegative orthants and
second-order (Lorentz) cones.  Each block carries its canonical barrier:

* orthant of dimension d:  B(x) = -sum_i ln x_i,          parameter d
* second-order cone (t,u): B(t,u) = -ln(t^2 - ||u||^2),   parameter 2

Values, gradients, Hessians and the barrier parameter are additive across
blocks.  Every barrier entry point reads the blocks in one walk,
``barrier_reads``, which is also the one entry check (length, finiteness and
strict interiority at any scale) and returns B(x) with the reads.
The reads can be handed on: the solver walks each point it evaluates once,
and builds the accepted point's factor from the same reads.  All local-norm
computations go through the lower Cholesky factor L of the barrier Hessian,
nabla^2 B(x) = L L^T, which is block diagonal; the reads that build it also
yield the barrier gradient nabla B(x).
``BarrierFactor`` stores the factor one block at a time, and this module is
the only one that knows that format:

* orthant block: the diagonal 1/x_b of L_b;
* second-order cone block (t, u) with gap gamma = (t - ||u||)(t + ||u||):
  the Hessian is D + (4/gamma^2) w w^T with D = (2/gamma) diag(-1, 1, ..., 1)
  and w = (t, -u), so its exact Cholesky factor is semiseparable,
  L_b = (I + tril(w beta^T, -1)) diag(sqrt(dbar)), by the rank-one LDL^T
  update of Gill, Golub, Murray & Saunders (Math. Comp. 1974).  It is built
  from suffix sums of u_k^2 in O(d) and stored as four d-vectors; both
  triangular solves are O(d) cumulative sums (``np.add.accumulate``, the
  ufunc behind ``np.cumsum``, without its wrapper), and no d x d array is
  formed.
  Each block is read once, at y = x_b / 2^e with its largest entry in
  [1/2, 1) (``_soc_read``).  Interiority is 0 < t - ||u|| < inf at y, and
  the value, factor and gradient are formed from y and its gap and rescaled
  by logarithmic homogeneity, so no square under- or overflows at any scale
  of x_b.  This is the solver's layer only; ``certify`` keeps closed forms
  of its own.

Everything else applies L through ``BarrierFactor.solve_lower`` and
``solve_upper``; the dual local norm ||v||_x* = ||L^{-1} v|| is one forward
substitution.  This module counts nothing: the solver counts each
``barrier_factor`` as one Cholesky and each ``local_norm_dual`` as one
triangular solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundaryError, FactorizationError

ORTHANT = "orthant"
SOC = "soc"

_LN2 = math.log(2.0)


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

    @cached_property
    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @property
    def theta(self) -> float:
        """Barrier parameter of the product barrier (>= 1)."""
        return sum(b.barrier_parameter for b in self.blocks)

    @cached_property
    def slices(self) -> tuple[tuple[ConeBlock, slice], ...]:
        """(block, slice of x) per block, in block order; formed once per cone."""
        out, start = [], 0
        for block in self.blocks:
            out.append((block, slice(start, start + block.dim)))
            start += block.dim
        return tuple(out)

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


def _soc_read(xb: np.ndarray) -> tuple[np.ndarray, int, float, float]:
    """(y, e, t - ||u||, (t - ||u||)(t + ||u||)) of an SOC block (t, u) = 2^e y, both read at y.

    y has its largest |y_i| in [1/2, 1); this is the layer's one SOC scale
    rule.  The barrier is logarithmically homogeneous, so B(x) = B(y) - 2e ln 2,
    nabla B(x) = 2^-e nabla B(y) and nabla^2 B(x) = 4^-e nabla^2 B(y).  At y no
    square overflows, or underflows far enough to matter, and scaling by a
    power of two is exact, so where x's own squares are normal floats the
    results are bit-equal to an evaluation at x itself.  The last entry is the
    gap t^2 - ||u||^2 at y; the block is interior iff 0 < t - ||u|| < inf, and
    then its largest entry is t.
    """
    e = math.frexp(np.maximum.reduce(np.abs(xb)))[1]
    y = np.ldexp(xb, -e)
    u = y[1:]
    t, r = float(y[0]), math.sqrt(u.dot(u))
    return y, e, t - r, (t - r) * (t + r)


def barrier_reads(cone: Cone, x: np.ndarray) -> tuple[float, list]:
    """(B(x), one read per block): the one walk and entry check behind every barrier entry point.

    ValueError unless x has length ``cone.total_dim``.  A read is x_b for an
    orthant block and (y, e, gap) of ``_soc_read`` for an SOC block.
    BoundaryError unless every orthant entry is finite and normal (>= 2^-1022,
    so 1/x_b is finite) and every SOC block is finite with t - ||u|| > 0 at y,
    with no constant that ties the test to the scale of x: NaN, inf and points
    far outside the cone are rejected without a warning.  An SOC block's term
    is -log of its gap at x, 4^e gap(y), where that is a normal float, and
    -log(gap(y)) - 2e ln 2 elsewhere, so B stays finite at every scale the
    factor handles.  The solver hands the accepted point's reads to ``barrier_factor``.
    """
    if x.shape != (cone.total_dim,):
        raise ValueError(f"expected vector of length {cone.total_dim}, got shape {x.shape}")
    total, reads = 0.0, []
    for block, sl in cone.slices:
        xb = x[sl]
        if block.kind == ORTHANT:
            if np.count_nonzero(xb >= 2.0**-1022) < xb.shape[0]:
                raise BoundaryError("orthant component not strictly interior (or subnormal)")
            logs = float(np.add.reduce(np.log(xb)))
            if not logs < math.inf:  # a sum of logs of finite doubles is finite
                raise BoundaryError("orthant component not finite")
            total -= logs
            reads.append(xb)
            continue
        y, e, slack, gap = _soc_read(xb)
        # at y a finite block has slack < 2, and an infinite entry gives NaN or inf
        if not 0.0 < slack < math.inf:
            raise BoundaryError("point not interior to second-order cone block")
        if -1021 <= math.frexp(gap)[1] + 2 * e <= 1024:  # 4^e gap(y) >= 2^-1022 and finite
            total -= float(np.log(math.ldexp(gap, 2 * e)))
        else:
            total -= float(np.log(gap)) + 2 * e * _LN2
        reads.append((y, e, gap))
    return total, reads


@dataclass(frozen=True)
class SocFactor:
    """Exact lower Cholesky factor of one second-order cone block's barrier Hessian.

    Built at y = 2^-e x (see ``_soc_read``), so L = 2^-e L_y.  Here
    L_y = (I + tril(w beta^T, -1)) diag(root_y) with beta = q / root_y^2, and
    the unit lower part, the same for x as for y, has the inverse
    I - tril(q p^T, -1).  So w, p and q stay at y's scale and only the
    diagonal root = 2^-e root_y carries x's: L^{-1} v and L^{-T} v are one
    shifted cumulative sum and one division each, for a vector or a k x d
    stack of rows.
    """

    root: np.ndarray  # 2^-e sqrt(dbar), the diagonal of L
    w: np.ndarray  # (t, -u) of y
    p: np.ndarray  # w / D
    q: np.ndarray  # w / ia, with ia_j = 1 / alpha_j of the rank-one update
    exponent: int  # e, with x = 2^e y


def _soc_factor(y: np.ndarray, e: int, gap: float) -> tuple[SocFactor, np.ndarray]:
    """O(d) factor of (2/gap) diag(-1, 1, ..., 1) + (4/gap^2) w w^T at an interior block 2^e y.

    Returned with the block's barrier gradient -2 w / gap.  Both are formed at
    y, with gap = gap(y), and rescaled, so neither fails at an extreme scale
    where its entries are representable.

    The rank-one LDL^T update of Gill, Golub, Murray & Saunders runs through
    ia_j = 1/alpha_j = ia_{j-1} + w_{j-1}^2 / D_{j-1}.  In closed form
    ia_0 = gap^2/4 and ia_j = -(gap/4)(gap + 2 sum_{k>=j} u_k^2) for j >= 1,
    taken from suffix sums so that nothing cancels; then
    dbar_j = D_j ia_{j+1} / ia_j.
    """
    d = y.shape[0]
    w = -y
    w[0] = y[0]
    c = 2.0 / gap  # D = c diag(-1, 1, ..., 1); the sign of D_0 is applied after each product
    ia = np.empty(d + 1)
    ia[0] = gap * gap / 4.0
    ia[d] = 0.0
    # ia[j] = sum_{k>=j} u_k^2 for j = 1..d-1, accumulated from the end, then
    # -(gap/4)(gap + 2 ia[j]) in place
    np.add.accumulate(y[:0:-1] ** 2, out=ia[-2:0:-1])
    tail = ia[1:]
    tail *= 2.0
    tail += gap
    tail *= -(gap / 4.0)
    head = ia[:-1]
    dbar = c * tail
    dbar /= head
    dbar[0] = -dbar[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = np.ldexp(np.sqrt(dbar), -e)
        gradient = np.ldexp(-2.0 * w / gap, -e)
    # |w_i| <= t, so the gradient's largest entry is its first; a NaN root fails the comparison
    if not (0.0 < np.minimum.reduce(root) and np.maximum.reduce(root) < math.inf
            and math.isfinite(gradient[0])):
        raise FactorizationError(
            "second-order cone barrier Hessian has a non-finite or non-positive pivot "
            "(point at an extreme scale)"
        )
    p = w / c
    p[0] = -p[0]
    return SocFactor(root=root, w=w, p=p, q=w / head, exponent=e), gradient


def _block_solve(f: np.ndarray | SocFactor, v: np.ndarray, lower: bool) -> np.ndarray:
    """L_b^{-1} v (lower) or L_b^{-T} v (upper) for one block factor f, along v's last axis.

    v is one vector or a k x d stack of rows, each solved alike.  The SOC sums
    are exclusive prefix (suffix) sums along the last axis, accumulated
    straight into the result's shifted entries.
    """
    if type(f) is np.ndarray:  # an orthant block, L_b = diag(f): both solves are one division
        return v / f
    root, p, q = f.root, f.p, f.q
    out = np.empty_like(v, dtype=float)
    if lower:  # z_i = (v_i - q_i sum_{j<i} p_j v_j) / root_i
        out[..., 0] = 0.0
        np.add.accumulate(p[:-1] * v[..., :-1], axis=-1, out=out[..., 1:])
        out *= q
        np.subtract(v, out, out=out)
        out /= root
        return out
    y = v / root  # then z_j = y_j - p_j sum_{i>j} q_i y_i
    out[..., -1] = 0.0
    np.add.accumulate(q[:0:-1] * y[..., :0:-1], axis=-1, out=out[..., -2::-1])
    out *= p
    np.subtract(y, out, out=out)
    return out


@dataclass(frozen=True)
class BarrierFactor:
    """Point x with nabla B(x) and the block-diagonal lower Cholesky factor L of nabla^2 B(x).

    ``blocks`` holds one factor per cone block, in block order: the vector
    1/x_b (the diagonal of L_b) for an orthant block and a ``SocFactor`` for
    a second-order cone block.  That format is known only to this module;
    callers use ``solve_lower``/``solve_upper``.  Immutable after
    construction and safe to share between threads.
    """

    cone: Cone
    point: np.ndarray
    blocks: tuple[np.ndarray | SocFactor, ...]
    gradient: np.ndarray  # nabla B(point)

    def _blockwise(self, v: np.ndarray, lower: bool) -> np.ndarray:
        out = np.empty_like(v, dtype=float)
        for (_, sl), f in zip(self.cone.slices, self.blocks):
            out[..., sl] = _block_solve(f, v[..., sl], lower)
        return out

    def solve_lower(self, v: np.ndarray) -> np.ndarray:
        """L^{-1} v for a vector, or for each row of a k x n stack; forward substitution."""
        if len(self.blocks) == 1:
            return _block_solve(self.blocks[0], v, True)
        return self._blockwise(v, True)

    def solve_upper(self, v: np.ndarray) -> np.ndarray:
        """L^{-T} v for a vector, or for each row of a k x n stack; backward substitution."""
        if len(self.blocks) == 1:
            return _block_solve(self.blocks[0], v, False)
        return self._blockwise(v, False)


def barrier_factor(cone: Cone, x: np.ndarray, reads: list | None = None) -> BarrierFactor:
    """Factor the barrier Hessian at an interior point, with the gradient from the same reads.

    ``reads`` is ``barrier_reads(cone, x)[1]`` when the caller has walked x
    already, as the solver's line search has at the point it accepts; without
    it x is walked here.  This is the cost model's one Cholesky; the solver counts it.
    """
    if reads is None:
        x = np.asarray(x, dtype=float)
        reads = barrier_reads(cone, x)[1]
    blocks, grads = [], []
    for block, b in zip(cone.blocks, reads):
        f, grad = (1.0 / b, -1.0 / b) if block.kind == ORTHANT else _soc_factor(*b)
        blocks.append(f)
        grads.append(grad)
    gradient = grads[0] if len(grads) == 1 else np.concatenate(grads)
    return BarrierFactor(cone=cone, point=x.copy(), blocks=tuple(blocks), gradient=gradient)


def local_norm_dual(factor: BarrierFactor, v: np.ndarray) -> float:
    """||v||_x* = ||L^{-1} v||; one forward substitution, which the solver counts."""
    z = factor.solve_lower(v)
    return math.sqrt(z.dot(z))
