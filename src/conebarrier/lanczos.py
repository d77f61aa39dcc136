"""Randomized Lanczos minimum-eigenvalue oracle.

Given a symmetric operator H, either returns a unit direction v with
v^T H v <= -eps/2 (negative curvature, verified with an independent matvec
before returning) or certifies lambda_min(H) >= -eps with probability at
least 1 - sqrt(2.75 n) * delta^(1 / sqrt(||H||)), where ||H|| is estimated
by a short power iteration and reported as an estimate.  The bound is
reported clipped at 0: it reads 0, and says nothing, once ||H|| is large
enough that the subtracted term exceeds 1.

The Lanczos recursion runs with full reorthogonalization for at most

    N(eps, delta) = min{n, 1 + ceil(eps^{-1/2} ln(1/delta))}

expansion steps, checking the smallest Ritz pair after every step so a
negative-curvature direction is returned as early as possible.  That pair
comes from numpy's dense symmetric eigensolver on the k x k tridiagonal
matrix.  k is at most the cap, 27 for the solver's epsilon = 1e-3 (the
oracle runs at eps = sqrt(epsilon), delta = 0.01), a size at which a dense
eigensolve costs microseconds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .vecnorm import norm2


NC = "negative_curvature"
CERTIFIED = "certified"

_BREAKDOWN_TOL = 1e-12
_POWER_ITERS = 10


@dataclass
class MeoOutcome:
    kind: str  # NC or CERTIFIED
    iterations: int
    direction: np.ndarray | None = None
    curvature: float | None = None  # verified v^T H v for NC outcomes
    probability_bound: float | None = None  # in [0, 1]; 0 means the bound is vacuous
    estimated_norm: float | None = None

    @property
    def found_negative_curvature(self) -> bool:
        return self.kind == NC


def lanczos_iteration_cap(n: int, eps: float, delta: float) -> int:
    """min{n, 1 + ceil(eps^{-1/2} ln(1/delta))}."""
    return min(n, 1 + math.ceil(eps**-0.5 * math.log(1.0 / delta)))


def tridiagonal_min_ritz(alphas: np.ndarray, betas: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of the symmetric tridiagonal matrix (unit eigenvector)."""
    alphas = np.asarray(alphas, dtype=float)
    betas = np.asarray(betas, dtype=float)
    if alphas.size == 0:
        raise ValueError("need at least one diagonal entry")
    tri = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    vals, vecs = np.linalg.eigh(tri)
    coeffs = vecs[:, 0]
    return float(vals[0]), coeffs / norm2(coeffs)


def estimate_operator_norm(
    matvec: Callable[[np.ndarray], np.ndarray],
    n: int,
    rng: np.random.Generator,
) -> float:
    """Spectral-norm estimate via a short power iteration on H."""
    z = rng.standard_normal(n)
    z_norm = norm2(z)
    if z_norm == 0.0:
        return 0.0
    z /= z_norm
    estimate = 0.0
    for _ in range(_POWER_ITERS):
        w = matvec(z)
        estimate = norm2(w)
        if estimate <= _BREAKDOWN_TOL:
            return 0.0
        z = w / estimate
    return estimate


def min_eig_oracle(
    matvec: Callable[[np.ndarray], np.ndarray],
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

    basis = np.zeros((n, cap))
    alphas = np.zeros(cap)
    betas = np.zeros(max(cap - 1, 0))

    q = rng.standard_normal(n)
    q /= norm2(q)
    basis[:, 0] = q
    beta_prev = 0.0
    iterations = 0
    for k in range(cap):
        w = matvec(basis[:, k])
        iterations = k + 1
        alphas[k] = float(basis[:, k] @ w)
        w = w - alphas[k] * basis[:, k]
        if k > 0:
            w = w - beta_prev * basis[:, k - 1]
        # full reorthogonalization keeps the Ritz extraction trustworthy
        w = w - basis[:, : k + 1] @ (basis[:, : k + 1].T @ w)

        theta, coeffs = tridiagonal_min_ritz(alphas[: k + 1], betas[:k])
        if theta <= -eps / 2.0:
            v = basis[:, : k + 1] @ coeffs
            v_norm = norm2(v)
            if v_norm > 0.0:
                v = v / v_norm
                curvature = float(v @ matvec(v))
                if curvature <= -eps / 2.0:
                    return MeoOutcome(
                        kind=NC, iterations=iterations, direction=v, curvature=curvature
                    )

        beta_prev = norm2(w)
        if k + 1 >= cap or beta_prev <= _BREAKDOWN_TOL * max(1.0, np.max(np.abs(alphas[: k + 1]))):
            break
        betas[k] = beta_prev
        basis[:, k + 1] = w / beta_prev

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
