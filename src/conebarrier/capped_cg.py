"""Capped conjugate gradient for the damped system (H + 2 eps I) d = -g.

Runs standard CG while monitoring curvature and residual growth.  Returns
either an approximate solution (kind SOL) with

    ||(H + 2 eps I) d + g|| <= zeta_hat ||g||   and   d^T H d >= -eps ||d||^2

or a negative-curvature direction (kind NC) with d^T H d < -eps ||d||^2.
The operator-norm estimate U starts at 0 and is refreshed on the fly from every computed
matrix-vector product; the derived quantities kappa, zeta_hat, tau and T are
recomputed after each refresh.  One fresh matvec is spent per iteration (on
the new residual); products with the direction and solution iterates are
maintained by the CG recurrences.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import HardCapExceeded, ZeroDirection, ZeroGradient


class DirectionKind(str, Enum):
    SOL = "SOL"
    NC = "NC"


@dataclass
class CappedCgParams:
    epsilon: float
    zeta: float

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError("zeta must lie in (0, 1)")


@dataclass
class CappedCgResult:
    kind: DirectionKind
    direction: np.ndarray
    iterations: int
    u: float
    kappa: float
    zeta_hat: float
    tau: float
    cap_t: float

    @property
    def is_solution(self) -> bool:
        return self.kind is DirectionKind.SOL


@dataclass
class _Monitors:
    """U and the quantities derived from it; refreshed on each U update."""

    epsilon: float
    zeta: float
    u: float
    kappa: float = field(init=False)
    zeta_hat: float = field(init=False)
    tau: float = field(init=False)
    cap_t: float = field(init=False)

    def __post_init__(self) -> None:
        self._refresh()

    def _refresh(self) -> None:
        self.kappa = (self.u + 2.0 * self.epsilon) / self.epsilon
        self.zeta_hat = self.zeta / (3.0 * self.kappa)
        sqrt_kappa = np.sqrt(self.kappa)
        self.tau = sqrt_kappa / (sqrt_kappa + 1.0)
        self.cap_t = 4.0 * self.kappa**4 / (1.0 - np.sqrt(self.tau)) ** 2

    def maybe_raise_u(self, hv_norm: float, v_norm: float) -> None:
        if hv_norm > self.u * v_norm:
            self.u = hv_norm / v_norm
            self._refresh()


def iteration_bound(result: CappedCgResult, n: int) -> int:
    """min{n, J} with J the smallest integer where sqrt(T) tau^{J/2} <= zeta_hat."""
    ratio = np.sqrt(result.cap_t) / result.zeta_hat
    if ratio <= 1.0:
        j = 0
    else:
        j = int(np.ceil(2.0 * np.log(ratio) / np.log(1.0 / result.tau)))
    return min(n, j)


def capped_cg(
    matvec: Callable[[np.ndarray], np.ndarray],
    g: np.ndarray,
    params: CappedCgParams,
) -> CappedCgResult:
    """Run capped CG on (H + 2 eps I) d = -g for a symmetric operator H."""
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    g_norm = np.linalg.norm(g)
    if g_norm == 0.0:
        raise ZeroGradient("capped CG requires a nonzero right-hand side")
    eps = params.epsilon
    hard_cap = 10 * n + 100
    mon = _Monitors(epsilon=eps, zeta=params.zeta, u=0.0)

    def result(kind: DirectionKind, direction: np.ndarray, iters: int) -> CappedCgResult:
        return CappedCgResult(
            kind=kind,
            direction=direction,
            iterations=iters,
            u=mon.u,
            kappa=mon.kappa,
            zeta_hat=mon.zeta_hat,
            tau=mon.tau,
            cap_t=mon.cap_t,
        )

    p = -g
    hp = matvec(p)
    quad_p = float(p @ hp) + 2.0 * eps * float(p @ p)
    if quad_p < eps * float(p @ p):
        return result(DirectionKind.NC, p, 0)
    mon.maybe_raise_u(float(np.linalg.norm(hp)), float(np.linalg.norm(p)))

    y = np.zeros(n)
    hy = np.zeros(n)
    r = g.copy()
    hr = -hp  # H g for p = -g
    rr = float(r @ r)
    ys = [y]
    hys = [hy]
    j = 0
    while True:
        alpha = rr / quad_p
        y = y + alpha * p
        hy = hy + alpha * hp
        r_new = r + alpha * (hp + 2.0 * eps * p)
        rr_new = float(r_new @ r_new)
        beta = rr_new / rr
        hr = matvec(r_new)
        p = -r_new + beta * p
        hp = -hr + beta * hp
        r, rr = r_new, rr_new
        j += 1
        if j > hard_cap:
            raise HardCapExceeded(
                f"capped CG exceeded the hard cap of {hard_cap} iterations; "
                "the operator may not be symmetric"
            )
        ys.append(y)
        hys.append(hy)

        p_norm = float(np.linalg.norm(p))
        y_norm = float(np.linalg.norm(y))
        r_norm = float(np.linalg.norm(r))
        if p_norm > 0.0:
            mon.maybe_raise_u(float(np.linalg.norm(hp)), p_norm)
        if y_norm > 0.0:
            mon.maybe_raise_u(float(np.linalg.norm(hy)), y_norm)
        if r_norm > 0.0:
            mon.maybe_raise_u(float(np.linalg.norm(hr)), r_norm)

        quad_y = float(y @ hy) + 2.0 * eps * y_norm**2
        quad_p = float(p @ hp) + 2.0 * eps * p_norm**2
        if quad_y < eps * y_norm**2:
            return result(DirectionKind.NC, y, j)
        if r_norm <= mon.zeta_hat * g_norm:
            return result(DirectionKind.SOL, y, j)
        if quad_p < eps * p_norm**2:
            return result(DirectionKind.NC, p, j)
        if r_norm > np.sqrt(mon.cap_t) * mon.tau ** (j / 2.0) * g_norm:
            alpha = rr / quad_p
            y_next = y + alpha * p
            hy_next = hy + alpha * hp
            diff = _backtrack_nc(ys, hys, y_next, hy_next, eps, matvec)
            return result(DirectionKind.NC, diff, j)


def _backtrack_nc(
    ys: list[np.ndarray],
    hys: list[np.ndarray],
    y_next: np.ndarray,
    hy_next: np.ndarray,
    eps: float,
    matvec: Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Scan iterate differences y_next - y_i for the first with curvature < -eps."""
    # ys holds y^0 .. y^j; the search range is i in {0, ..., j-1}
    for i in range(len(ys) - 1):
        dy = y_next - ys[i]
        dy_sq = float(dy @ dy)
        quad = float(dy @ (hy_next - hys[i])) + 2.0 * eps * dy_sq
        if quad < eps * dy_sq:
            return dy
    # Recurrence-tracked products drifted; redo the scan with fresh matvecs.
    for i in range(len(ys) - 1):
        dy = y_next - ys[i]
        dy_sq = float(dy @ dy)
        quad = float(dy @ matvec(dy)) + 2.0 * eps * dy_sq
        if quad < eps * dy_sq:
            return dy
    raise HardCapExceeded("residual-growth exit found no negative-curvature difference")


def nc_curvature(matvec: Callable[[np.ndarray], np.ndarray], d: np.ndarray) -> float:
    """Rayleigh quotient d^T H d / ||d||^2; one matvec."""
    d = np.asarray(d, dtype=float)
    dd = float(d @ d)
    if dd == 0.0:
        raise ZeroDirection("curvature of the zero direction is undefined")
    return float(d @ matvec(d)) / dd
