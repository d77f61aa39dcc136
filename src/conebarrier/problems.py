"""Problem abstraction, builtin nonconvex test instances, and JSON I/O.

A :class:`ConicProblem` bundles objective callbacks (value, gradient, and a
dense Hessian or a Hessian-vector product), dense equality constraints, a
cone, and a strictly feasible starting point.  Callbacks must be pure; a
problem is immutable after construction.

Problem files are JSON.  Builtin instances serialize as a reference
``{"builtin": <name>, "n": ..., "params": {...}}`` and regenerate bit for
bit on load; explicit instances carry a dense quadratic objective:

    {
      "name": str,
      "n": int,
      "cone": [{"type": "orthant"|"soc", "dim": int}, ...],
      "A": [[...], ...],          # optional, row-major
      "b": [...],                 # required iff A present
      "objective": {"quadratic": {"Q": [[...], ...], "c": [...]}},
      "x0": [...]
    }
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import cones
from .cones import Cone
from .errors import CallbackError, FactorizationError, ParseError, SchemaError, UnknownProblem
from .linops import AffineData, empty_affine

@dataclass
class ConicProblem:
    name: str
    cone: Cone
    affine: AffineData
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray] | None = None
    hess_vec_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    x0: np.ndarray | None = None
    serial: dict | None = field(default=None, repr=False)  # JSON form for save/load round trips

    def __post_init__(self) -> None:
        if self.hessian is None and self.hess_vec_fn is None:
            raise ValueError("problem needs a dense Hessian or a Hessian-vector callback")
        if self.affine.n != self.cone.total_dim:
            raise ValueError("affine data and cone disagree on dimension")

    @property
    def n(self) -> int:
        return self.cone.total_dim

    @property
    def m(self) -> int:
        return self.affine.m

    @property
    def has_dense_hessian(self) -> bool:
        return self.hessian is not None

    def hess_vec_at(self, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """The product v -> (Hessian of f at x) v; a dense Hessian is formed and
        shape-checked once here, and its product is the array's own ``dot``."""
        if self.hess_vec_fn is not None:
            return lambda v: self.hess_vec_fn(x, v)
        hess, n = np.asarray(self.hessian(x), dtype=float), self.n
        if hess.shape != (n, n):
            raise CallbackError(f"hessian callback returned shape {hess.shape}, expected ({n}, {n})")
        return hess.dot


def _simplex_affine(n: int) -> AffineData:
    return AffineData(A=np.ones((1, n)), b=np.array([1.0]))


def _symmetric_indefinite(n: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return (g + g.T) / (2.0 * np.sqrt(n))


def _pnorm_terms(p: float) -> tuple[Callable, Callable, Callable]:
    """Value, gradient and Hessian diagonal of sum_i x_i^p for 0 < p < 1."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    return (
        lambda x: float(np.sum(x**p)),
        lambda x: p * x ** (p - 1.0),
        lambda x: p * (p - 1.0) * x ** (p - 2.0),
    )


def _pnorm_simplex(n: int, p: float) -> ConicProblem:
    value, gradient, hess_diag = _pnorm_terms(p)
    return ConicProblem(name="", cone=cones.orthant(n), affine=_simplex_affine(n), value=value,
                        gradient=gradient, hessian=lambda x: np.diag(hess_diag(x)),
                        x0=np.full(n, 1.0 / n))


def _negnorm_simplex(n: int) -> ConicProblem:
    return ConicProblem(name="", cone=cones.orthant(n), affine=_simplex_affine(n),
                        value=lambda x: -0.5 * float(x.dot(x)), gradient=lambda x: -x,
                        hessian=lambda x: -np.eye(n), x0=np.full(n, 1.0 / n))


def _nonconvex_qp_simplex(n: int, seed: int) -> ConicProblem:
    rng = np.random.default_rng(seed)
    q_mat = _symmetric_indefinite(n, rng)
    c = rng.standard_normal(n)
    return _quadratic_problem(q_mat, c, cones.orthant(n), _simplex_affine(n), np.full(n, 1.0 / n))


def _regularized_loss(n: int, p: float, seed: int) -> ConicProblem:
    pnorm_value, pnorm_grad, pnorm_hess_diag = _pnorm_terms(p)
    rng = np.random.default_rng(seed)
    c_mat = rng.standard_normal((n, n)) / np.sqrt(n)
    d = rng.standard_normal(n)

    def value(x: np.ndarray) -> float:
        res = c_mat @ x - d
        return float(res @ res) + pnorm_value(x)

    def gradient(x: np.ndarray) -> np.ndarray:
        return 2.0 * c_mat.T @ (c_mat @ x - d) + pnorm_grad(x)

    def hessian(x: np.ndarray) -> np.ndarray:
        return 2.0 * c_mat.T @ c_mat + np.diag(pnorm_hess_diag(x))

    return ConicProblem(name="", cone=cones.orthant(n), affine=empty_affine(n), value=value,
                        gradient=gradient, hessian=hessian, x0=np.ones(n))


def _soc_quadratic(n: int, m: int, seed: int, blocks: int) -> ConicProblem:
    if n < 2:
        raise ValueError("soc_quadratic needs n >= 2")
    if not 1 <= m <= n - 1:
        raise ValueError("need 1 <= m <= n - 1")
    if blocks < 1 or n % blocks or n // blocks < 2:
        raise ValueError("blocks must divide n into second-order cones of dimension >= 2")
    d = n // blocks
    rng = np.random.default_rng(seed)
    q_mat = _symmetric_indefinite(n, rng)
    c = rng.standard_normal(n)
    # each block is anchored at the interior point (2, w) with ||w|| = 1; the first
    # constraint row sums the blocks' radial coordinates, keeping the feasible slice compact
    w = rng.standard_normal((blocks, d - 1))
    x0 = np.concatenate([np.concatenate(([2.0], wb / np.linalg.norm(wb))) for wb in w])
    a_mat = np.zeros((m, n))
    a_mat[0, ::d] = 1.0
    if m > 1:
        a_mat[1:] = rng.standard_normal((m - 1, n))
    cone = cones.Cone((cones.ConeBlock(cones.SOC, d),) * blocks)
    return _quadratic_problem(q_mat, c, cone, AffineData(A=a_mat, b=a_mat @ x0), x0)


# The builtin instances: name -> (constructor, its parameters with their defaults).
# A constructor takes n and every parameter, read as an integer where its default is one;
# builtin() names the instance and writes its serial form, which leaves out the parameters in
# _SERIAL_OMITS_DEFAULT while they hold their defaults.
_BUILTINS = {
    "pnorm_simplex": (_pnorm_simplex, {"p": 0.5}),
    "negnorm_simplex": (_negnorm_simplex, {}),
    "nonconvex_qp_simplex": (_nonconvex_qp_simplex, {"seed": 0}),
    "regularized_loss": (_regularized_loss, {"p": 0.5, "seed": 0}),
    "soc_quadratic": (_soc_quadratic, {"m": 2, "seed": 0, "blocks": 1}),
}
_SERIAL_OMITS_DEFAULT = ("blocks",)
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name: str, n: int, /, **params) -> ConicProblem:
    """Construct a builtin instance; each ships its own interior x0."""
    n = _number(n, "n", integer=True)
    if n < 1:
        raise ValueError("n must be positive")
    if name not in BUILTIN_NAMES:
        raise UnknownProblem(f"no builtin problem named {name!r}")
    make, defaults = _BUILTINS[name]
    if unknown := sorted(params.keys() - defaults.keys()):
        raise UnknownProblem(f"unknown parameters for builtin {name!r}: {unknown}")
    values = {key: _number(params.get(key, default), key, integer=isinstance(default, int))
              for key, default in defaults.items()}
    if values.get("seed", 0) < 0:
        raise ValueError(f"'seed' must be nonnegative, got {values['seed']}")
    serial = {key: value for key, value in values.items()
              if key not in _SERIAL_OMITS_DEFAULT or value != defaults[key]}
    return replace(make(n, **values), name=name,
                   serial={"builtin": name, "n": n, "params": serial})


def _quadratic_problem(
    q_mat: np.ndarray,
    c: np.ndarray,
    cone: Cone,
    affine: AffineData,
    x0: np.ndarray,
    name: str = "",
    serial: dict | None = None,
) -> ConicProblem:
    return ConicProblem(
        name=name,
        cone=cone,
        affine=affine,
        value=lambda x: 0.5 * float(x.dot(q_mat).dot(x)) + float(c.dot(x)),
        gradient=lambda x: q_mat.dot(x) + c,
        hessian=lambda x: q_mat,
        x0=np.asarray(x0, dtype=float),
        serial=serial,
    )


def perturb(problem: ConicProblem, sigma: float) -> ConicProblem:
    """Add sigma * ||x||^2 to the objective (gradient +2 sigma x, Hessian +2 sigma I)."""
    if not 0.0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
    n = problem.n
    base_value, base_grad = problem.value, problem.gradient
    base_hess, base_hv = problem.hessian, problem.hess_vec_fn

    def hessian(x: np.ndarray) -> np.ndarray:
        # a fresh array with 2 sigma added on its diagonal, the same bits as
        # base_hess(x) + 2 sigma I without forming I; base_hess's array is shared, never written
        hess = np.add(base_hess(x), 0.0, dtype=float)
        hess.flat[::n + 1] += 2.0 * sigma
        return hess

    return ConicProblem(
        name=f"{problem.name}+reg",
        cone=problem.cone,
        affine=problem.affine,
        value=lambda x: base_value(x) + sigma * float(x @ x),
        gradient=lambda x: base_grad(x) + 2.0 * sigma * x,
        hessian=None if base_hess is None else hessian,
        hess_vec_fn=None if base_hv is None else lambda x, v: base_hv(x, v) + 2.0 * sigma * v,
        x0=problem.x0,
        serial=None,
    )


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _number(value, name: str, integer: bool = False) -> float | int:
    """A finite number, no bool or string, an int where ``integer``; else SchemaError naming it."""
    kinds = (int, np.integer) if integer else (int, float, np.integer)  # np.float64 is a float
    if isinstance(value, kinds) and not isinstance(value, bool) and abs(value) <= sys.float_info.max:
        return int(value) if integer else float(value)
    kind = "integer" if integer else "number"
    raise SchemaError(f"{name!r} must be a finite {kind}, got {value!r:.40}")


def _array(value, name: str, shape: tuple) -> np.ndarray:
    """Lists nested as ``shape`` (None: any positive length) of numbers; else SchemaError."""
    items = [value]
    for size in shape:
        _require(all(isinstance(x, list) and x and size in (None, len(x)) for x in items),
                 f"{name!r} must be an array of numbers of shape {str(shape).replace('None', 'k')}")
        items = [entry for item in items for entry in item]
    for entry in items:
        _number(entry, name)
    return np.array(value, dtype=float)


def problem_from_dict(data: dict) -> ConicProblem:
    if not isinstance(data, dict):
        raise SchemaError("problem file must contain a JSON object")
    if "builtin" in data:
        params = data.get("params", {})
        _require(isinstance(params, dict), "'params' must be an object")
        try:
            return builtin(data["builtin"], data.get("n"), **params)
        except (ValueError, SchemaError) as exc:
            raise SchemaError(f"bad builtin parameters: {exc}") from exc

    for key in ("n", "cone", "objective", "x0"):
        _require(key in data, f"missing field '{key}'")
    n = _number(data["n"], "n", integer=True)
    name = data.get("name", "quadratic")
    _require(isinstance(name, str), "'name' must be a string")
    _require(isinstance(data["cone"], list) and all(isinstance(b, dict) for b in data["cone"]),
             "'cone' must be a list of {'type': ..., 'dim': ...} blocks")
    try:
        cone = Cone(tuple(cones.ConeBlock(b.get("type"), _number(b.get("dim"), "dim", True))
                          for b in data["cone"]))
    except ValueError as exc:
        raise SchemaError(f"bad cone description: {exc}") from exc
    _require(cone.total_dim == n, "cone dimensions do not sum to n")

    _require(("A" in data) == ("b" in data), "'A' and 'b' must be given together")
    try:
        affine = (AffineData(_array(data["A"], "A", (None, n)), _array(data["b"], "b", (None,)))
                  if "A" in data else empty_affine(n))
    except (ValueError, FactorizationError) as exc:
        raise SchemaError(str(exc)) from exc

    obj = data["objective"]
    _require(isinstance(obj, dict) and "quadratic" in obj,
             "explicit objectives must be {'quadratic': {'Q': ..., 'c': ...}}")
    quad = obj["quadratic"]
    _require(isinstance(quad, dict) and "Q" in quad and "c" in quad,
             "'quadratic' needs fields 'Q' and 'c'")
    q_mat = _array(quad["Q"], "Q", (n, n))
    with np.errstate(over="ignore"):
        q_mat = 0.5 * (q_mat + q_mat.T)
    _require(np.isfinite(q_mat).all(), "'Q' overflows when made symmetric")
    c = _array(quad["c"], "c", (n,))
    x0 = _array(data["x0"], "x0", (n,))

    serial = {
        "name": name,
        "n": n,
        "cone": cone.describe(),
        "objective": {"quadratic": {"Q": q_mat.tolist(), "c": c.tolist()}},
        "x0": x0.tolist(),
    }
    if affine.m > 0:
        serial["A"] = affine.A.tolist()
        serial["b"] = affine.b.tolist()
    return _quadratic_problem(q_mat, c, cone, affine, x0, name, serial)


def _read_json(path: str | Path):
    """The JSON value in a file; ParseError if it cannot be read or decoded."""
    try:
        return json.loads(Path(path).read_text())
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def load_problem(path: str | Path) -> ConicProblem:
    return problem_from_dict(_read_json(path))


def load_vector(path: str | Path, expected: int, what: str) -> np.ndarray:
    """A vector in a JSON file: a bare array, or an object's ``what`` or 'values' key."""
    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get(what, data.get("values"))
        _require(data is not None, f"{path}: the JSON object has no {what!r} or 'values' key")
    vec = _array(data, what, (None,))
    _require(vec.shape == (expected,), f"{what} has length {vec.shape[0]}, expected {expected}")
    return vec


def save_problem(problem: ConicProblem, path: str | Path) -> None:
    if problem.serial is None:
        raise SchemaError(
            f"problem {problem.name!r} has no serializable form "
            "(callback-defined objective)"
        )
    Path(path).write_text(json.dumps(problem.serial, indent=2) + "\n")
