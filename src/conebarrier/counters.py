"""Operation counters for the solver's cost accounting.

One counter per fundamental-operation category: Cholesky factorizations of
the barrier Hessian, Hessian-vector products of the objective, triangular
(forward/backward) substitutions, products of an m-by-n matrix with its own
transpose, gradient evaluations, and objective-value evaluations.

Only barrier-Hessian factorizations increment ``cholesky``; the small Schur
factorization done once per workspace is folded into the workspace-build
accounting (see README for the per-iteration decomposition).
"""
from __future__ import annotations


CATEGORIES = ("cholesky", "hess_vec", "tri_solve", "matT_mat", "grad_eval", "fun_eval")


class OpCounters:
    """Tallies for one solve, one attribute per category."""

    def __init__(self) -> None:
        for name in CATEGORIES:
            setattr(self, name, 0)

    def add(self, category: str, amount: int = 1) -> None:
        if category not in CATEGORIES:
            raise KeyError(f"unknown counter category: {category}")
        setattr(self, category, getattr(self, category) + amount)

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in CATEGORIES}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"OpCounters({parts})"


def bump(counters: OpCounters | None, category: str, amount: int = 1) -> None:
    """Increment if a counter object was supplied; no-op otherwise."""
    if counters is not None and amount:
        counters.add(category, amount)
