"""Randomized Lanczos minimum-eigenvalue oracle, run as a CG recurrence.

Either returns a unit v with v^T H v <= -eps/2, or certifies lambda_min(H)
>= -eps with probability at least 1 - sqrt(2.75 n) delta^(1 / sqrt(||H||)),
||H|| from a short power iteration; clipped at 0, it says nothing.  Lanczos
from a random unit start runs N(eps, delta) = min{n, 1 + ceil(eps^{-1/2}
ln(1/delta))} steps at most, asking after step k: theta_min(T_k) <= -eps/2?
CG on H + (eps/2) I from the same start has the LDL^T pivots of
T_k + (eps/2) I as its pivots p^T (H + (eps/2) I) p / r^T r (Golub & Van
Loan, 10.2), so its first non-positive pivot comes at that same step.  The
oracle runs CG on three vectors, with no basis, reorthogonalization or
eigensolve, and returns p / ||p||, whose curvature comes from that step's own
product: no further matvec verifies it.  The breakdown rule reads alpha_k and
beta_k off the CG scalars; r and p are rescaled by 1/||r|| each step, so a
fast-shrinking residual cannot underflow.  ``capped_cg`` is not reused: its
small-residual exit would certify before N(eps, delta) steps, and the bound
needs them all, or a breakdown (an invariant Krylov space).  The operator
has capped CG's contract, v -> (H v, c(v)), and the oracle reads H v only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np


NC = "negative_curvature"
CERTIFIED = "certified"

_BREAKDOWN_TOL = 1e-12
_POWER_ITERS = 10


@dataclass
class MeoOutcome:
    kind: str  # NC or CERTIFIED
    iterations: int
    direction: np.ndarray | None = None
    curvature: float | None = None  # v^T H v for NC outcomes, from the detecting step's product
    probability_bound: float | None = None  # in [0, 1]; 0 means the bound is vacuous
    estimated_norm: float | None = None

    @property
    def found_negative_curvature(self) -> bool:
        return self.kind == NC


def lanczos_iteration_cap(n: int, eps: float, delta: float) -> int:
    """min{n, 1 + ceil(eps^{-1/2} ln(1/delta))}."""
    return min(n, 1 + math.ceil(eps**-0.5 * math.log(1.0 / delta)))


def estimate_operator_norm(
    matvec: Callable[[np.ndarray], tuple[np.ndarray, Any]],
    n: int,
    rng: np.random.Generator,
) -> float:
    """Spectral-norm estimate via a short power iteration on H."""
    z = rng.standard_normal(n)
    z_norm = math.sqrt(z.dot(z))
    if z_norm == 0.0:
        return 0.0
    z /= z_norm
    estimate = 0.0
    for _ in range(_POWER_ITERS):
        w = matvec(z)[0]
        estimate = math.sqrt(w.dot(w))
        if estimate <= _BREAKDOWN_TOL:
            return 0.0
        z = w / estimate
    return estimate


def min_eig_oracle(
    matvec: Callable[[np.ndarray], tuple[np.ndarray, Any]],
    n: int,
    eps: float,
    delta: float,
    seed: int | np.random.Generator = 0,
) -> MeoOutcome:
    """Negative-curvature direction with v^T H v <= -eps/2, or a certificate.

    The same seed reproduces the outcome and iteration count bit for bit.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    rng = np.random.default_rng(seed)  # a Generator passes through unaltered
    cap = lanczos_iteration_cap(n, eps, delta)
    shift = eps / 2.0

    r = rng.standard_normal(n)
    r /= math.sqrt(r.dot(r))
    p = r
    alpha_scale = 1.0  # max(1, max_k |alpha_k|), the breakdown rule's scale
    ratio_prev = pivot_prev = 0.0  # ||r_k||^2 / ||r_{k-1}||^2 and pivot_{k-1}
    iterations = 0
    for iterations in range(1, cap + 1):
        hp = matvec(p)[0]
        pp = float(p.dot(p))
        curvature = float(p.dot(hp)) / pp
        if curvature <= -shift:  # the pivot p^T (H + shift I) p is not positive
            v = p / math.sqrt(pp)
            return MeoOutcome(kind=NC, iterations=iterations, direction=v, curvature=curvature)
        pivot = (curvature + shift) * pp  # > 0 here; with ||r|| = 1, a pivot of T_k + shift I
        # Lanczos alpha_k = pivot_k + ratio_k pivot_{k-1} - shift; beta_{k+1} = ||w|| pivot_k
        alpha_scale = max(alpha_scale, abs(pivot + ratio_prev * pivot_prev - shift))
        w = r - (hp + shift * p) / pivot
        w_norm = math.sqrt(w.dot(w))
        if iterations >= cap or w_norm * pivot <= _BREAKDOWN_TOL * alpha_scale:
            break
        r = w / w_norm
        p = r + w_norm * p  # (w + ||w||^2 p) / ||w||: CG's update, rescaled by 1/||w||
        ratio_prev, pivot_prev = w_norm * w_norm, pivot

    estimate = estimate_operator_norm(matvec, n, rng)
    if estimate > _BREAKDOWN_TOL:
        tail = math.sqrt(2.75 * n) * delta ** (1.0 / math.sqrt(estimate))
    else:
        tail = 0.0  # zero operator: the certificate is deterministic
    return MeoOutcome(
        kind=CERTIFIED,
        iterations=iterations,
        probability_bound=max(0.0, 1.0 - tail),
        estimated_norm=estimate,
    )
