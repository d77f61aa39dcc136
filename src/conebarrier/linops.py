"""Null-space projection calculus built on the barrier factor.

Write L for the lower Cholesky factor of the barrier Hessian at the current
iterate, so the inverse Hessian splits as M M^T with M = L^{-T}.  This module
applies L only through ``BarrierFactor.solve_lower`` (L^{-1}) and
``solve_upper`` (L^{-T}) and never looks at how the factor is stored; its own
triangular solves are with the m x m Schur factor, as direct calls of one
float64 LAPACK ``trtrs`` handle fetched at import (a division when m = 1).
The workspace precomputes

* ``scaled_AT``  N = L^{-1} A^T            (m forward substitutions)
* ``schur_lower`` C with C C^T = N^T N     (Schur complement A M M^T A^T)

and exposes the derived linear maps, each applied through triangular solves:

* ``unscale(v)``      M v   = L^{-T} v       scaled direction -> ambient
* ``scale_dual(v)``   M^T v = L^{-1} v       ambient gradient -> scaled
* ``project(v)``      v - N (N^T N)^{-1} N^T v, the orthogonal projector
                      onto the null space of A L^{-T}
* ``null_step(v)``    unscale(project(v)); always satisfies A * result = 0
* ``null_step_t(v)``  project(scale_dual(v)), the transpose of null_step
* ``multipliers(v)``  -(A M M^T A^T)^{-1} A M M^T v, least-squares
                      multiplier estimate for the gradient v

``reduced_hessian_apply`` composes these into one product of the damped,
scaled and projected objective Hessian with a vector, the workhorse of the
inner CG iteration.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs

from .cones import BarrierFactor
from .counters import OpCounters, bump
from .errors import FactorizationError

_trtrs = get_lapack_funcs("trtrs", dtype=np.float64)


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
        if m > 0 and np.linalg.matrix_rank(self.A) < m:
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
    """Per-iterate cache: barrier factor, scaled constraints, Schur factor.

    Immutable after construction.
    """

    def __init__(
        self,
        affine: AffineData,
        factor: BarrierFactor,
        counters: OpCounters | None = None,
    ) -> None:
        n = factor.dim
        if affine.n != n:
            raise ValueError("affine data and barrier factor disagree on dimension")
        self.affine = affine
        self.factor = factor
        self.counters = counters
        self.m = m = affine.m
        if m > 0:
            self.scaled_AT = factor.solve_lower(affine.A.T)
            bump(counters, "tri_solve", m)
            schur = self.scaled_AT.T @ self.scaled_AT
            bump(counters, "matT_mat")
            try:
                self.schur_lower = np.linalg.cholesky(schur)
            except np.linalg.LinAlgError as exc:
                raise FactorizationError(
                    "Schur complement numerically singular; A may be rank-deficient"
                ) from exc
        else:
            self.scaled_AT = np.zeros((n, 0))
            self.schur_lower = np.zeros((0, 0))

    @property
    def point(self) -> np.ndarray:
        return self.factor.point

    @property
    def n(self) -> int:
        return self.factor.dim

    def _schur_solve(self, w: np.ndarray) -> np.ndarray:
        """(N^T N)^{-1} w = C^{-T} C^{-1} w through the Schur factor; two triangular solves."""
        bump(self.counters, "tri_solve", 2)
        if self.m == 1:
            return w / (self.schur_lower[0, 0] ** 2)
        # C^T is the Fortran-ordered upper triangle LAPACK reads without a copy
        upper = self.schur_lower.T
        z, info = _trtrs(upper, w, lower=0, trans=1)
        if info == 0:
            z, info = _trtrs(upper, z, lower=0, trans=0)
        if info != 0:
            raise FactorizationError(f"Schur triangular solve failed (LAPACK info {info})")
        return z

    def unscale(self, v: np.ndarray) -> np.ndarray:
        """M v = L^{-T} v; one backward substitution."""
        bump(self.counters, "tri_solve")
        return self.factor.solve_upper(v)

    def scale_dual(self, v: np.ndarray) -> np.ndarray:
        """M^T v = L^{-1} v; one forward substitution."""
        bump(self.counters, "tri_solve")
        return self.factor.solve_lower(v)

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the null space of the scaled constraints."""
        if self.m == 0:
            return np.array(v, dtype=float, copy=True)
        w = self.scaled_AT.T @ v
        return v - self.scaled_AT @ self._schur_solve(w)

    def null_step(self, v: np.ndarray) -> np.ndarray:
        """Ambient-space step unscale(project(v)); lies in the null space of A."""
        return self.unscale(self.project(v))

    def null_step_t(self, v: np.ndarray) -> np.ndarray:
        """Transpose map project(scale_dual(v))."""
        return self.project(self.scale_dual(v))

    def multipliers(self, v: np.ndarray) -> np.ndarray:
        """Least-squares multiplier estimate -(A M M^T A^T)^{-1} A M M^T v."""
        if self.m == 0:
            return np.zeros(0)
        w = self.unscale(self.scale_dual(v))
        return -self._schur_solve(self.affine.A @ w)

    def reduced_hessian_apply(
        self,
        hess_vec: Callable[[np.ndarray], np.ndarray],
        mu: float,
        v: np.ndarray,
    ) -> np.ndarray:
        """Product of the scaled, projected and barrier-damped Hessian with v.

        Returns project(scale_dual(hess_vec(unscale(project(v))))) + mu * project(v),
        costing one call of ``hess_vec`` and six triangular solves (two of size
        n, four of size m); only the solves are counted here.
        """
        v1 = self.project(v)
        v2 = self.unscale(v1)
        v4 = self.scale_dual(hess_vec(v2))
        v5 = self.project(v4)
        return v5 + mu * v1
