"""Cone geometry and logarithmically homogeneous barrier functions.

Supported cones are Cartesian products of nonnegative orthants and
second-order (Lorentz) cones.  Each block carries its canonical barrier:

* orthant of dimension d:  B(x) = -sum_i ln x_i,          parameter d
* second-order cone (t,u): B(t,u) = -ln(t^2 - ||u||^2),   parameter 2

Values, gradients, Hessians and the barrier parameter are additive across
blocks, so the barrier layer works one block *type* at a time.
``Cone.groups``, formed once per cone, lays x out in groups: one group holds
every orthant coordinate, and one group per distinct second-order cone
dimension d holds that dimension's k blocks.  A group's coordinates are one
slice of x where they are adjacent and an integer gather where they are not.
The orthant group is read as one vector, a lone second-order cone block as
one d-vector, and k >= 2 blocks of dimension d as the rows of a k x d stack,
each row read, factored and solved exactly as a lone block is.  A walk over
a point therefore makes O(number of block types) numpy calls, however many
blocks the cone has.

Every barrier entry point reads the groups in one walk, ``barrier_reads``,
which is also the one entry check (length, finiteness and strict
interiority at any scale) and returns B(x) with the reads.  The reads can be
handed on: the solver walks each point it evaluates once, and builds the
accepted point's factor from the same reads.  All local-norm computations go
through the lower Cholesky factor L of the barrier Hessian,
nabla^2 B(x) = L L^T, which is block diagonal; the reads that build it also
yield the barrier gradient nabla B(x).  ``BarrierFactor`` stores the factor
one group at a time, and this module is the only one that knows that format:

* the orthant group: the diagonal 1/x of L over all orthant coordinates;
* a second-order cone block (t, u) with gap gamma = (t - ||u||)(t + ||u||):
  the Hessian is D + (4/gamma^2) w w^T with D = (2/gamma) diag(-1, 1, ..., 1)
  and w = (t, -u), so its exact Cholesky factor is semiseparable,
  L_b = (I + tril(w beta^T, -1)) diag(sqrt(dbar)), by the rank-one LDL^T
  update of Gill, Golub, Murray & Saunders (Math. Comp. 1974).  It is built
  from suffix sums of u_k^2 in O(d) and stored as d-vectors (k x d stacks
  for a group of k blocks); both triangular solves are O(d) cumulative sums
  along each row (``np.add.accumulate``, the ufunc behind ``np.cumsum``,
  without its wrapper), and no d x d array is formed.
  Each block is read at y = x_b / 2^e with its largest entry in [1/2, 1)
  (``_soc_read``, ``_soc_rows_read``).  Interiority is 0 < t - ||u|| < inf
  at y, and the value, factor and gradient are formed from y and its gap and
  rescaled by logarithmic homogeneity, so no square under- or overflows at
  any scale of x_b.  This is the solver's layer only; ``certify`` keeps
  closed forms of its own.

Everything else applies L through ``BarrierFactor.solve_lower`` and
``solve_upper``, which a factor binds once from its groups' own solves; the
dual local norm ||v||_x* = ||L^{-1} v|| is one forward substitution.  This
module counts nothing: the solver counts each ``barrier_factor`` as one
Cholesky and each ``local_norm_dual`` as one triangular solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

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
        dim = self.dim  # the problem-file reader's integer rule: an int or numpy integer, no bool
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ValueError(f"cone block dimension must be a positive integer, got {dim!r:.40}")
        if self.kind == SOC and dim < 2:
            raise ValueError("second-order cone blocks need dimension >= 2")

    @property
    def barrier_parameter(self) -> float:
        return float(self.dim) if self.kind == ORTHANT else 2.0


@dataclass(frozen=True)
class Cone:
    """Ordered product of orthant and second-order cone blocks."""

    blocks: tuple[ConeBlock, ...]

    def __post_init__(self) -> None:
        if not self.blocks or not all(isinstance(b, ConeBlock) for b in self.blocks):
            raise ValueError(f"a cone needs at least one block, all ConeBlocks: {self.blocks!r:.40}")

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

    @cached_property
    def groups(self) -> tuple[tuple[str, slice | np.ndarray, tuple[int, int] | None], ...]:
        """(kind, index, rows) per block type, in order of first appearance; formed once per cone.

        One orthant group holds every orthant coordinate and one SOC group per
        distinct dimension d its blocks, each in block order.  ``index`` is the
        slice of x that holds the group's coordinates where they are adjacent,
        else an integer gather.  ``rows`` is (k, d) for k >= 2 SOC blocks, read
        as the rows of a k x d stack, and None for the orthant group and a lone
        SOC block, read as a vector.
        """
        members: dict[tuple[str, int], list[slice]] = {}
        for block, sl in self.slices:
            members.setdefault((block.kind, block.dim if block.kind == SOC else 0), []).append(sl)
        out = []
        for (kind, dim), sls in members.items():
            if all(a.stop == b.start for a, b in zip(sls, sls[1:])):
                index = slice(sls[0].start, sls[-1].stop)
            else:
                index = np.concatenate([np.arange(sl.start, sl.stop) for sl in sls])
            out.append((kind, index, (len(sls), dim) if kind == SOC and len(sls) > 1 else None))
        return tuple(out)

    def describe(self) -> list[dict]:
        """JSON-ready block list, the wire format used in problem files."""
        return [{"type": b.kind, "dim": int(b.dim)} for b in self.blocks]


def orthant(dim: int) -> Cone:
    return Cone((ConeBlock(ORTHANT, dim),))


def second_order(dim: int) -> Cone:
    return Cone((ConeBlock(SOC, dim),))


def product(*blocks: ConeBlock) -> Cone:
    return Cone(tuple(blocks))


def _soc_read(xb: np.ndarray) -> tuple[np.ndarray, int, float, float]:
    """(y, e, gap, -ln gap(x)) of an interior SOC block (t, u) = 2^e y, read at y.

    y has its largest |y_i| in [1/2, 1); this is the layer's one SOC scale
    rule.  The barrier is logarithmically homogeneous, so B(x) = B(y) - 2e ln 2,
    nabla B(x) = 2^-e nabla B(y) and nabla^2 B(x) = 4^-e nabla^2 B(y).  At y no
    square overflows, or underflows far enough to matter, and scaling by a
    power of two is exact, so where x's own squares are normal floats the
    results are bit-equal to an evaluation at x itself.  gap is
    (t - ||u||)(t + ||u||) at y.  BoundaryError unless 0 < t - ||u|| < inf at
    y: at y a finite block has t - ||u|| < 2, and an infinite entry gives NaN
    or inf.  The block's barrier term is -log of its gap at x, 4^e gap, where
    that is a normal float, and -log(gap) - 2e ln 2 elsewhere, so it stays
    finite at every scale the factor handles.
    """
    e = math.frexp(np.maximum.reduce(np.abs(xb)))[1]
    y = np.ldexp(xb, -e)
    u = y[1:]
    t, r = float(y[0]), math.sqrt(u.dot(u))
    if not 0.0 < t - r < math.inf:
        raise BoundaryError("point not interior to second-order cone block")
    gap = (t - r) * (t + r)
    if -1021 <= math.frexp(gap)[1] + 2 * e <= 1024:  # 4^e gap(y) >= 2^-1022 and finite
        return y, e, gap, -float(np.log(math.ldexp(gap, 2 * e)))
    return y, e, gap, -(float(np.log(gap)) + 2 * e * _LN2)


def _soc_rows_read(xb: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """``_soc_read`` of each row of a k x d stack: (y, e, gap, sum of -ln gap(x)).

    e and gap are k x 1 columns, and each row's y, e and gap are bit-equal to
    its own ``_soc_read``: ||u||^2 is one dot product per row, from ``np.matmul``
    of a 1 x (d-1) row by its (d-1) x 1 transpose.  BoundaryError unless every
    row is interior.
    """
    e = np.frexp(np.maximum.reduce(np.abs(xb), axis=1, keepdims=True))[1]
    y = np.ldexp(xb, -e)
    u = y[:, 1:]
    t = y[:, :1]
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        r = np.sqrt(np.matmul(u[:, None, :], u[:, :, None])[:, 0])
        slack = t - r
        if not (0.0 < np.minimum.reduce(slack, axis=None)
                and np.maximum.reduce(slack, axis=None) < math.inf):
            raise BoundaryError("point not interior to second-order cone block")
        gap = slack * (t + r)
        s = np.frexp(gap)[1] + 2 * e  # the rule of _soc_read, row by row
        logs = np.where((-1021 <= s) & (s <= 1024), np.log(np.ldexp(gap, 2 * e)),
                        np.log(gap) + 2 * e * _LN2)
    return y, e, gap, -float(np.add.reduce(logs, axis=None))


def barrier_reads(cone: Cone, x: np.ndarray) -> tuple[float, list]:
    """(B(x), one read per group of ``cone.groups``): the one walk and entry check behind every
    barrier entry point.

    ValueError unless x has length ``cone.total_dim``.  A read is the orthant
    coordinates for the orthant group and (y, e, gap) of ``_soc_read`` or
    ``_soc_rows_read`` for an SOC group.  BoundaryError unless every orthant
    entry is finite and normal (>= 2^-1022, so 1/x_b is finite) and every SOC
    block is finite with t - ||u|| > 0 at y, with no constant that ties the
    test to the scale of x: NaN, inf and points far outside the cone are
    rejected without a warning.  The solver hands the accepted point's reads to
    ``barrier_factor``.
    """
    if x.shape != (cone.total_dim,):
        raise ValueError(f"expected vector of length {cone.total_dim}, got shape {x.shape}")
    total, reads = 0.0, []
    for kind, index, rows in cone.groups:
        xb = x[index]
        if kind == ORTHANT:
            if np.count_nonzero(xb >= 2.0**-1022) < xb.shape[0]:
                raise BoundaryError("orthant component not strictly interior (or subnormal)")
            logs = float(np.add.reduce(np.log(xb)))
            if not logs < math.inf:  # a sum of logs of finite doubles is finite
                raise BoundaryError("orthant component not finite")
            total -= logs
            reads.append(xb)
            continue
        y, e, gap, value = _soc_read(xb) if rows is None else _soc_rows_read(xb.reshape(rows))
        total += value
        reads.append((y, e, gap))
    return total, reads


@dataclass(frozen=True)
class SocFactor:
    """Exact lower Cholesky factor of one second-order cone block's barrier Hessian,
    or of each block of a group, one k x d row per block.

    Built at y = 2^-e x (see ``_soc_read``), so L = 2^-e L_y.  Here
    L_y = (I + tril(w beta^T, -1)) diag(root_y) with beta = q / root_y^2, and
    the unit lower part, the same for x as for y, has the inverse
    I - tril(q p^T, -1).  So w, p and q stay at y's scale and only the
    diagonal root = 2^-e root_y carries x's: L^{-1} v and L^{-T} v are one
    shifted cumulative sum and one division each, for a vector or a stack of
    rows.
    """

    root: np.ndarray  # 2^-e sqrt(dbar), the diagonal of L
    w: np.ndarray  # (t, -u) of y
    p: np.ndarray  # w / D
    q: np.ndarray  # w / ia, with ia_j = 1 / alpha_j of the rank-one update
    exponent: int | np.ndarray  # e, with x = 2^e y; a k x 1 column for a group
    p_head: np.ndarray  # p without its last entry, the operand of the forward sum
    q_tail: np.ndarray  # q without its first entry, reversed: the operand of the backward sum

    def solve_lower(self, v: np.ndarray) -> np.ndarray:
        """L_b^{-1} v along v's last axis: z_i = (v_i - q_i sum_{j<i} p_j v_j) / root_i.

        v is one vector or a stack of rows, each solved alike; for a group's
        factor its last two axes are k x d, one row per block.  The exclusive
        prefix sums are accumulated straight into the result's shifted entries.
        """
        out = np.empty(v.shape)
        out[..., 0] = 0.0
        np.add.accumulate(self.p_head * v[..., :-1], axis=-1, out=out[..., 1:])
        out *= self.q
        np.subtract(v, out, out=out)
        out /= self.root
        return out

    def solve_upper(self, v: np.ndarray) -> np.ndarray:
        """L_b^{-T} v along v's last axis: z_j = y_j - p_j sum_{i>j} q_i y_i with y = v / root,
        the exclusive suffix sums accumulated as in ``solve_lower``."""
        y = v / self.root
        out = np.empty(v.shape)
        out[..., -1] = 0.0
        np.add.accumulate(self.q_tail * y[..., :0:-1], axis=-1, out=out[..., -2::-1])
        out *= self.p
        np.subtract(y, out, out=out)
        return out


def _soc_factor(y: np.ndarray, e: int | np.ndarray, gap: float | np.ndarray) -> tuple[SocFactor, np.ndarray]:
    """O(d) factor of (2/gap) diag(-1, 1, ..., 1) + (4/gap^2) w w^T at an interior block 2^e y.

    y is one block, with e an int and gap a float, or a k x d stack of rows,
    with e and gap k x 1 columns; every step runs along the last axis, so each
    row is factored exactly as a lone block.  Returned with the barrier
    gradient -2 w / gap.  Both are formed at y, with gap = gap(y), and
    rescaled, so neither fails at an extreme scale where its entries are
    representable.

    The rank-one LDL^T update of Gill, Golub, Murray & Saunders runs through
    ia_j = 1/alpha_j = ia_{j-1} + w_{j-1}^2 / D_{j-1}.  In closed form
    ia_0 = gap^2/4 and ia_j = -(gap/4)(gap + 2 sum_{k>=j} u_k^2) for j >= 1,
    taken from suffix sums so that nothing cancels; then
    dbar_j = D_j ia_{j+1} / ia_j.
    """
    d = y.shape[-1]
    first = 0 if y.ndim == 1 else np.s_[:, :1]  # each row's first entry, as a k x 1 column
    w = -y
    w[first] = y[first]
    c = 2.0 / gap  # D = c diag(-1, 1, ..., 1); the sign of D_0 is applied after each product
    ia = np.empty(y.shape[:-1] + (d + 1,))
    ia[first] = gap * gap / 4.0
    ia[..., d] = 0.0
    # ia[j] = sum_{k>=j} u_k^2 for j = 1..d-1, accumulated from the end, then
    # -(gap/4)(gap + 2 ia[j]) in place
    np.add.accumulate(y[..., :0:-1] ** 2, axis=-1, out=ia[..., -2:0:-1])
    tail = ia[..., 1:]
    tail *= 2.0
    tail += gap
    tail *= -(gap / 4.0)
    head = ia[..., :-1]
    dbar = c * tail
    dbar /= head
    dbar[first] = -dbar[first]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root = np.ldexp(np.sqrt(dbar), -e)
        gradient = np.ldexp(-2.0 * w / gap, -e)
    # |w_i| <= t, so a row's gradient entry of largest size is its first, which is negative;
    # a NaN fails the comparisons
    if not (0.0 < np.minimum.reduce(root, axis=None)
            and np.maximum.reduce(root, axis=None) < math.inf
            and -math.inf < np.minimum.reduce(gradient[first], axis=None)):
        raise FactorizationError(
            "second-order cone barrier Hessian has a non-finite or non-positive pivot "
            "(point at an extreme scale)"
        )
    p = w / c
    p[first] = -p[first]
    q = w / head
    return SocFactor(root, w, p, q, e, p[..., :-1], q[..., :0:-1]), gradient


def _stacked(rows: tuple[int, int], solve: Callable, v: np.ndarray) -> np.ndarray:
    """A group's k x d stacked solve applied to v's last axis, read as k rows of d."""
    return solve(v.reshape(v.shape[:-1] + rows)).reshape(v.shape)


def _groupwise(indices: tuple, solves: tuple, v: np.ndarray) -> np.ndarray:
    """L^{-1} v or L^{-T} v on a cone of several groups, each group's coordinates by its solve."""
    out = np.empty(v.shape)
    for index, solve in zip(indices, solves):
        out[..., index] = solve(v[..., index])
    return out


@dataclass(frozen=True)
class BarrierFactor:
    """Point x with nabla B(x) and the block-diagonal lower Cholesky factor L of nabla^2 B(x).

    ``factors`` holds one factor per group of ``cone.groups``: the vector 1/x
    (the diagonal of L) over the orthant coordinates and a ``SocFactor`` per
    SOC group.  That format is known only to this module; callers use the two
    solves, each of a vector or of each row of a k x n stack:

    * ``solve_lower(v)`` = L^{-1} v, forward substitution;
    * ``solve_upper(v)`` = L^{-T} v, backward substitution.

    Both are bound once, from each group's solve pair (v / (1/x) for the
    orthant group, a ``SocFactor``'s solves for an SOC group, reshaped for a
    stack): a cone of one group binds its pair, one of several a walk over
    the pairs.  Immutable after construction and safe to share between threads.
    """

    cone: Cone
    point: np.ndarray
    factors: tuple[np.ndarray | SocFactor, ...]
    gradient: np.ndarray  # nabla B(point)
    solve_lower: Callable[[np.ndarray], np.ndarray]
    solve_upper: Callable[[np.ndarray], np.ndarray]


def barrier_factor(cone: Cone, x: np.ndarray, reads: list | None = None) -> BarrierFactor:
    """Factor the barrier Hessian at an interior point, with the gradient from the same reads.

    ``reads`` is ``barrier_reads(cone, x)[1]`` when the caller has walked x
    already, as the solver's line search has at the point it accepts; without
    it x is walked here.  This is the cost model's one Cholesky; the solver counts it.
    """
    if reads is None:
        x = np.asarray(x, dtype=float)
        reads = barrier_reads(cone, x)[1]
    parts = []
    for (kind, index, rows), b in zip(cone.groups, reads):
        if kind == ORTHANT:  # L = diag(f), and the bound f.__rtruediv__(v) is v / f
            f = 1.0 / b
            gradient, lower, upper = -f, f.__rtruediv__, f.__rtruediv__
        else:
            f, gradient = _soc_factor(*b)
            lower, upper = f.solve_lower, f.solve_upper
            if rows is not None:
                gradient = gradient.reshape(-1)
                lower, upper = partial(_stacked, rows, lower), partial(_stacked, rows, upper)
        parts.append((index, f, gradient, lower, upper))
    if len(parts) == 1:  # the group spans x, and its solves are the factor's
        return BarrierFactor(cone, x.copy(), (f,), gradient, lower, upper)
    indices, factors, gradients, lowers, uppers = zip(*parts)
    gradient = np.empty(cone.total_dim)
    for index, g in zip(indices, gradients):
        gradient[index] = g
    return BarrierFactor(cone, x.copy(), factors, gradient, partial(_groupwise, indices, lowers),
                         partial(_groupwise, indices, uppers))


def local_norm_dual(factor: BarrierFactor, v: np.ndarray) -> float:
    """||v||_x* = ||L^{-1} v||; one forward substitution, which the solver counts."""
    z = factor.solve_lower(v)
    return math.sqrt(z.dot(z))
