"""Euclidean norm of a vector without ``np.linalg.norm``'s wrapper.

For a 1-D float vector ``np.linalg.norm(v)`` flattens ``v`` in memory order
and returns ``sqrt(v.dot(v))``.  ``norm2`` makes exactly those two calls and
skips the wrapper's argument handling, so its result is bit-equal to numpy's.

The Lanczos oracle takes its norms through ``norm2``; the solver, the cone
layer and capped CG take ``math.sqrt(v.dot(v))`` of the contiguous vectors
they form themselves, once per outer iteration or more.  For a contiguous
vector the flattening is a view, so the two forms give the same float, and
the second saves one call per norm.
"""
from __future__ import annotations

import math

import numpy as np


def norm2(v: np.ndarray) -> float:
    """||v||_2 of a 1-D float array; bit-equal to ``np.linalg.norm(v)``."""
    v = v.ravel(order="K")  # a copy only for a strided view, as in numpy
    return math.sqrt(v.dot(v))
