"""Operation counters for the solver's cost accounting.

One counter per fundamental-operation category: Cholesky factorizations of
the barrier Hessian, Hessian-vector products of the objective (all of them
inside capped CG and the eigenvalue oracle; the multiplier lambda2 and a
negative-curvature direction's curvature come from capped CG's own products
and take none of their own), triangular
(forward/backward) substitutions, products of an m-by-n matrix with its own
transpose, gradient evaluations, and objective-value evaluations.

Two layers count, each what it runs: ``linops.IterationWorkspace`` counts the
triangular solves of its own maps and its one ``matT_mat``, and ``solver``
counts the rest -- one ``cholesky`` per barrier factor, the first-order
gate's one ``tri_solve``, one ``fun_eval`` per merit value, and each
gradient and Hessian-vector callback.  Only barrier-Hessian factorizations
increment ``cholesky``; the small Schur factorization done once per
workspace is folded into the workspace-build accounting (see README for the
per-iteration decomposition).
"""
from __future__ import annotations


CATEGORIES = ("cholesky", "hess_vec", "tri_solve", "matT_mat", "grad_eval", "fun_eval")


class OpCounters:
    """Tallies for one solve, one attribute per category."""

    def __init__(self) -> None:
        for name in CATEGORIES:
            setattr(self, name, 0)

    def add(self, category: str, amount: int = 1) -> None:
        """KeyError for a category not in ``CATEGORIES``."""
        self.__dict__[category] += amount

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in CATEGORIES}

