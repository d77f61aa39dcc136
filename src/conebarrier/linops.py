"""Null-space projection calculus built on the barrier factor.

Write L for the lower Cholesky factor of the barrier Hessian at the current
iterate, so the inverse Hessian splits as M M^T with M = L^{-T}.  This module
applies L only through ``BarrierFactor.solve_lower`` (L^{-1}) and
``solve_upper`` (L^{-T}) and never looks at how the factor is stored.  Its
own triangular solves are with the m x m Schur factor C: for m >= 2 the
build forms C^{-T} C^{-1} = (N^T N)^{-1} once, from numpy's inverse of C,
and each pair of Schur solves is one m x m product with it, still counted
as the two substitutions it replaces.  When m = 1 the Schur factor is the
scalar c00 = sqrt(N^T N), so its solves are one division and the projector
is v - a (a^T v) / c00^2 with the single column a of N.  C itself is not
kept.  The workspace precomputes

* ``scaled_AT``  N = L^{-1} A^T            (m forward substitutions)

``solve_lower`` and ``solve_upper`` take a vector or a k x n stack of rows,
so N is built as ``solve_lower(A).T``: one forward substitution along each
contiguous row of A, and N is the transposed view of that m x n result.

and exposes the derived linear maps, each applied through triangular solves:

* ``unscale(v)``      M v   = L^{-T} v       scaled direction -> ambient
* ``scale_dual(v)``   M^T v = L^{-1} v       ambient gradient -> scaled
* ``project(v)``      v - N (N^T N)^{-1} N^T v, the orthogonal projector
                      onto the null space of A L^{-T}
* ``null_step(v)``    unscale(project(v)); always satisfies A * result = 0
* ``null_step_t(v)``  project(scale_dual(v)), the transpose of null_step,
                      with the range coefficient of scale_dual(v)
* ``multipliers(v)``  -(A M M^T A^T)^{-1} A M M^T v, least-squares
                      multiplier estimate for the gradient v, applied as
                      minus the range coefficient of L^{-1} v, since N^T = A M

The multipliers solve that least-squares problem, so in exact arithmetic
L^{-1}(v + A^T multipliers(v)) = null_step_t(v): the dual local norm of the
multiplier residual is the norm of the transposed null step, and the solver
reads its first-order gate from the capped-CG right-hand side.

A projection subtracts N c(w) from w, with c(w) = (N^T N)^{-1} N^T w the
range coefficient of w, so multipliers(v) = -c(L^{-1} v).  ``null_step_t``
and ``reduced_hessian_apply`` return the coefficient of the vector they
project last next to their result, at no extra cost: a float when m = 1, an
m-vector when m >= 2, and 0.0 when m = 0.  Capped CG carries the reduced
product's coefficient through its recurrences, and the solver forms the
multiplier lambda2 of a Newton step from the two, with no product of its own.
The solver's lambda1 at a stop is minus the coefficient of ``null_step_t``,
the same value that multipliers(v) returns; ``multipliers`` itself runs only
for the lambda1 at a new point, where no such coefficient is at hand.

``reduced_hessian_apply`` composes these into one product of the damped,
scaled and projected objective Hessian with a vector, the workhorse of the
inner CG iteration.  The workspace counts its own work into the solve's
``OpCounters``: the build's m forward substitutions and one ``matT_mat``, and
for each public map one ``add`` of its documented ``tri_solve`` total; the
composed maps compute through uncounted private helpers.  It does not count
the barrier factor it is built on, or ``hess_vec`` products; the solver does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cones import BarrierFactor
from .counters import OpCounters
from .errors import FactorizationError

_SINGULAR_SCHUR = "Schur complement numerically singular; A may be rank-deficient"


@dataclass
class AffineData:
    """Dense equality constraints A x = b with A of full row rank (m <= n)."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).reshape(-1)
        if self.A.size == 0:
            self.A = self.A.reshape(0, max(self.A.shape[-1], 0))
        m, n = self.A.shape
        if self.b.shape != (m,):
            raise ValueError(f"b has length {self.b.shape[0]}, expected {m}")
        if m > n:
            raise ValueError("more equality constraints than variables")
        for name, value in (("A", self.A), ("b", self.b)):
            if not np.isfinite(value).all():
                raise ValueError(f"{name} has a non-finite entry")
        # the rank of A with column j scaled by 2^-e_j, its largest entry then in [1/2, 1): the
        # scaling is exact, so any power-of-two column scaling of A gets the same decision
        if m > 0 and np.linalg.matrix_rank(np.ldexp(self.A, -np.frexp(abs(self.A).max(0))[1])) < m:
            raise FactorizationError("A is not of full row rank")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]


def empty_affine(n: int) -> AffineData:
    return AffineData(A=np.zeros((0, n)), b=np.zeros(0))


class IterationWorkspace:
    """Per-iterate cache: barrier factor, scaled constraints, Schur inverse.

    Immutable after construction; its work is counted into ``counters``.
    """

    def __init__(self, affine: AffineData, factor: BarrierFactor, counters: OpCounters) -> None:
        m, n = affine.A.shape
        if factor.point.shape[0] != n:
            raise ValueError("affine data and barrier factor disagree on dimension")
        self.affine = affine
        self.factor = factor
        self.counters = counters
        self.m = m
        # tri_solve count of one projection; each composed op adds once, this included
        self._project_cost = 2 if m else 0
        if m > 0:
            self.scaled_AT = factor.solve_lower(affine.A).T
            counters.add("tri_solve", m)
            schur = self.scaled_AT.T.dot(self.scaled_AT)
            counters.add("matT_mat")
            if m == 1:
                # a scalar factor; not (s > 0) also rejects NaN, as LAPACK potrf does
                s = float(schur[0, 0])
                if not s > 0.0:
                    raise FactorizationError(_SINGULAR_SCHUR)
                c00 = math.sqrt(s)
                self._a, self._schur_sq = self.scaled_AT[:, 0], c00**2
            else:
                try:
                    c_inv = np.linalg.inv(np.linalg.cholesky(schur))
                except np.linalg.LinAlgError as exc:
                    raise FactorizationError(_SINGULAR_SCHUR) from exc
                # (N^T N)^{-1} = C^{-T} C^{-1}, so each pair of Schur solves is one product
                # with it; it overflows where the Schur complement is (nearly) subnormal
                with np.errstate(over="ignore", invalid="ignore"):
                    self._schur_inv = c_inv.T.dot(c_inv)
                if not np.isfinite(self._schur_inv).all():
                    raise FactorizationError(_SINGULAR_SCHUR)
        else:
            self.scaled_AT = np.zeros((n, 0))

    @property
    def point(self) -> np.ndarray:
        return self.factor.point

    def _split(self, v: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        """(project(v), c(v)) with v = project(v) + N c(v), uncounted; (v, 0.0) when m = 0.

        c(v) = (N^T N)^{-1} N^T v is v's range coefficient: a float when m = 1,
        where N (N^T N)^{-1} N^T v is a division by c00^2 with the column a of N,
        and an m-vector from the Schur inverse otherwise.
        """
        if self.m == 1:
            a = self._a
            c = a.dot(v) / self._schur_sq
            return v - a * c, c
        if self.m == 0:
            return v, 0.0
        n_mat = self.scaled_AT
        c = self._schur_inv.dot(n_mat.T.dot(v))
        return v - n_mat.dot(c), c

    def unscale(self, v: np.ndarray) -> np.ndarray:
        """M v = L^{-T} v; one backward substitution."""
        self.counters.add("tri_solve")
        return self.factor.solve_upper(v)

    def scale_dual(self, v: np.ndarray) -> np.ndarray:
        """M^T v = L^{-1} v; one forward substitution."""
        self.counters.add("tri_solve")
        return self.factor.solve_lower(v)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the null space of the scaled constraints.

        Two triangular solves with the Schur factor (none when m = 0).
        """
        if self.m == 0:
            return np.array(v, dtype=float, copy=True)
        self.counters.add("tri_solve", 2)
        return self._split(v)[0]

    def null_step(self, v: np.ndarray) -> np.ndarray:
        """Ambient-space step unscale(project(v)); lies in the null space of A.

        Three triangular solves (one when m = 0).
        """
        self.counters.add("tri_solve", 1 + self._project_cost)
        return self.factor.solve_upper(self._split(v)[0])

    def null_step_t(self, v: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        """Transpose map project(scale_dual(v)) and the range coefficient of scale_dual(v).

        Returns the pair ``_split(scale_dual(v))``, so multipliers(v) is minus the
        coefficient; three triangular solves (one when m = 0).
        """
        self.counters.add("tri_solve", 1 + self._project_cost)
        return self._split(self.factor.solve_lower(v))

    def multipliers(self, v: np.ndarray) -> np.ndarray:
        """Least-squares multiplier estimate -(A M M^T A^T)^{-1} A M M^T v.

        Minus the range coefficient of L^{-1} v, since N^T = A M: the value the
        solver's lambda1 takes at a stop.  Three triangular solves (none when m = 0).
        """
        if self.m == 0:
            return np.zeros(0)
        self.counters.add("tri_solve", 3)
        return -np.reshape(self._split(self.factor.solve_lower(v))[1], self.m)

    def reduced_hessian_apply(
        self,
        hess_vec: Callable[[np.ndarray], np.ndarray],
        mu: float,
        v: np.ndarray,
    ) -> tuple[np.ndarray, float | np.ndarray]:
        """Product of the scaled, projected and barrier-damped Hessian with v, and its coefficient.

        Returns the pair (project(w) + mu * project(v), c(w)) with
        w = scale_dual(hess_vec(unscale(project(v)))) and c(w) the range
        coefficient that the second projection subtracts: c(w) = -multipliers(H s)
        for the ambient step s = unscale(project(v)).  Costs one call of
        ``hess_vec`` and six triangular solves (two of size n, four of size m; two
        in all when m = 0); only the solves are counted here.
        """
        self.counters.add("tri_solve", 2 + 2 * self._project_cost)
        factor = self.factor
        v1 = self._split(v)[0]
        w, c = self._split(factor.solve_lower(hess_vec(factor.solve_upper(v1))))
        return w + mu * v1, c
