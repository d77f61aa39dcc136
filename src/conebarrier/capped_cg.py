"""Capped conjugate gradient for the damped system (H + 2 eps I) d = -g.

Runs standard CG while monitoring curvature and residual growth.  Returns
either an approximate solution (kind SOL) with

    ||(H + 2 eps I) d + g|| <= zeta_hat ||g||   and   d^T H d >= -eps ||d||^2

or a negative-curvature direction (kind NC) with d^T H d < -eps ||d||^2.
The operator-norm estimate U starts at 0 and is refreshed on the fly from every computed
matrix-vector product; the derived quantities kappa, zeta_hat, tau and T are
formed once per refresh of U: in the first iteration, where the tests first
read them, and in each later one that raised U.  One fresh matvec is spent
per iteration (on the new residual); products with the direction and
solution iterates are maintained by the CG recurrences.  The first iterate
y^1 = alpha_0 p_0 is formed directly from y^0 = 0, and p^T (H + 2 eps I) p is
formed only once the tests on y have passed, for the two tests that read it.

The operator returns a pair (H v, c(v)): the product and a coefficient that
is linear in v, a float or a small vector (``linops`` returns the range
coefficient of its reduced product; an operator with none returns 0.0).
The coefficients of p and y are carried by the recurrences that carry their
products, c_p <- beta c_p - c_r and c_y <- c_y + alpha c_p, and a SOL result
reports c_y, the coefficient of its direction, with no further matvec.  An NC
result reports d^T H d / d^T d from the product its exit test read: the
pre-loop product, the recurrences' products with y or p, or the residual-growth
scan's difference of carried products (a fresh product in its second pass).

A residual-growth exit at iteration j scans y^(j+1) - y^i, i = 0, ..., j-1, for
the first with curvature below -eps.  No iterate is stored: a replay of the loop
from y^0 = 0 makes each y^i and H y^i again, bit for bit, as the operator must be
pure (the same floats for the same input).  It reads carried products and spends
i + 1 products to reach y^i; if none qualifies (j products), a second replay takes
a fresh product of each difference, 2 (i + 1), and raises after 2 j of them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable

import numpy as np

from .errors import HardCapExceeded, ZeroGradient


class DirectionKind(str, Enum):
    SOL = "SOL"
    NC = "NC"


@dataclass
class CappedCgResult:
    kind: DirectionKind
    direction: np.ndarray
    iterations: int
    zeta_hat: float
    tau: float
    cap_t: float
    coef: Any = None  # the operator's coefficient of a SOL direction; None for NC
    curvature: float | None = None  # d^T H d / d^T d of an NC direction; None for SOL

    @property
    def is_solution(self) -> bool:
        return self.kind is DirectionKind.SOL


def _monitors(u: float, eps: float, zeta: float) -> tuple[float, float, float]:
    """(zeta_hat, tau, T) for U = u, through kappa; T = +inf where sqrt(tau) rounds to 1."""
    kappa = (u + 2.0 * eps) / eps
    sqrt_kappa = math.sqrt(kappa)
    tau = sqrt_kappa / (sqrt_kappa + 1.0)
    root_tau = math.sqrt(tau)
    cap_t = 4.0 * kappa**4 / (1.0 - root_tau) ** 2 if root_tau < 1.0 else math.inf
    return zeta / (3.0 * kappa), tau, cap_t


def capped_cg(
    matvec: Callable[[np.ndarray], tuple[np.ndarray, Any]],
    g: np.ndarray,
    eps: float,
    zeta: float,
    *,
    _scan: tuple | None = None,
) -> CappedCgResult:
    """Run capped CG on (H + 2 eps I) d = -g for a symmetric, pure operator v -> (H v, c(v)).

    eps and zeta lie in (0, 1); ``SolverParams`` checks them for the solver.  Only the
    residual-growth exit passes ``_scan`` = (y^(j+1), H y^(j+1), j, fresh): that replay
    returns the scan's (direction, curvature), or None, unless it left the run's path.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[0]
    rr = float(g.dot(g))  # also p^T p for p = -g
    g_norm = math.sqrt(rr)
    if g_norm == 0.0:
        raise ZeroGradient("capped CG requires a nonzero right-hand side")
    hard_cap = 10 * n + 100

    p = -g
    hp, cp = matvec(p)
    php = float(p.dot(hp))
    quad_p = php + 2.0 * eps * rr
    if quad_p < eps * rr:
        return CappedCgResult(DirectionKind.NC, p, 0, *_monitors(0.0, eps, zeta), curvature=php / rr)
    u = math.sqrt(hp.dot(hp)) / g_norm  # U starts at 0, and ||p|| = ||g||
    u_formed = -1.0  # the U that zeta_hat, tau and T were formed from; none yet

    # the first step from y^0 = 0 is alpha p, and a replay's scan reads y^0 as 0.0
    alpha = rr / quad_p
    y = alpha * p
    hy = alpha * hp
    cy = alpha * cp
    r = g
    y_i = hy_i = 0.0
    j = 0
    while True:
        if _scan is not None:  # a replay at y^j: test y^(j+1) - y^j of the run it replays
            y_next, hy_next, stop, fresh = _scan
            dy = y_next - y_i
            dy_sq = float(dy.dot(dy))
            dhd = float(dy.dot(matvec(dy)[0] if fresh else hy_next - hy_i))
            if dhd + 2.0 * eps * dy_sq < eps * dy_sq:
                return dy, dhd / dy_sq
            if j + 1 == stop:
                return None
            y_i, hy_i = y, hy
        r_new = r + alpha * (hp + 2.0 * eps * p)
        rr_new = float(r_new.dot(r_new))
        beta = rr_new / rr
        hr, cr = matvec(r_new)
        p = beta * p - r_new
        hp = beta * hp - hr
        cp = beta * cp - cr
        r, rr = r_new, rr_new
        j += 1
        if j > hard_cap:
            raise HardCapExceeded(
                f"capped CG exceeded the hard cap of {hard_cap} iterations; "
                "the operator may not be symmetric, or floating-point error on an "
                "ill-conditioned operator may have stalled the recurrences"
            )

        p_norm = math.sqrt(p.dot(p))
        y_norm = math.sqrt(y.dot(y))
        r_norm = math.sqrt(rr)
        # refresh U from every product at hand, then its derived quantities once
        for hv, v_norm in ((hp, p_norm), (hy, y_norm), (hr, r_norm)):
            if v_norm > 0.0:
                hv_norm = math.sqrt(hv.dot(hv))
                if hv_norm > u * v_norm:
                    u = hv_norm / v_norm
        if u != u_formed:
            zeta_hat, tau, cap_t = _monitors(u, eps, zeta)
            u_formed = u

        yhy = float(y.dot(hy))
        if yhy + 2.0 * eps * y_norm**2 < eps * y_norm**2:
            direction, curvature = y, yhy / float(y.dot(y))
            break
        if r_norm <= zeta_hat * g_norm:
            return CappedCgResult(DirectionKind.SOL, y, j, zeta_hat, tau, cap_t, cy)
        php = float(p.dot(hp))
        quad_p = php + 2.0 * eps * p_norm**2
        if quad_p < eps * p_norm**2:
            direction, curvature = p, php / float(p.dot(p))
            break
        grown = r_norm > math.sqrt(cap_t) * tau ** (j / 2.0) * g_norm
        alpha = rr / quad_p
        y = y + alpha * p
        hy = hy + alpha * hp
        cy = cy + alpha * cp
        if grown and _scan is None:  # scan back from the next iterate; a replay scans no run of its own
            found = (capped_cg(matvec, g, eps, zeta, _scan=(y, hy, j, False))
                     or capped_cg(matvec, g, eps, zeta, _scan=(y, hy, j, True)))
            if not isinstance(found, tuple):  # None, or a replay that left the run's path
                raise HardCapExceeded("residual-growth exit found no negative-curvature difference")
            direction, curvature = found
            break
    return CappedCgResult(DirectionKind.NC, direction, j, zeta_hat, tau, cap_t, curvature=curvature)
