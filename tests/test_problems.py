import copy
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conebarrier.certify import is_interior
from conebarrier.cones import SOC, ConeBlock, second_order
from conebarrier.errors import SchemaError, UnknownProblem
from conebarrier.problems import (
    BUILTIN_NAMES,
    builtin,
    load_problem,
    perturb,
    problem_from_dict,
    save_problem,
)

from conftest import random_interior_point


class TestBuiltins:
    def test_negnorm_values(self):
        p = builtin("negnorm_simplex", 10)
        assert p.value(np.full(10, 0.1)) == pytest.approx(-0.05)
        vertex = np.zeros(10)
        vertex[0] = 1.0
        assert p.value(vertex) == pytest.approx(-0.5)

    def test_pnorm_values(self):
        p = builtin("pnorm_simplex", 4, p=0.5)
        assert p.value(np.full(4, 0.25)) == pytest.approx(2.0)
        vertex = np.zeros(4)
        vertex[3] = 1.0
        assert p.value(vertex) == pytest.approx(1.0)

    def test_qp_reproducible(self):
        p1 = builtin("nonconvex_qp_simplex", 6, seed=5)
        p2 = builtin("nonconvex_qp_simplex", 6, seed=5)
        x = np.full(6, 1 / 6)
        assert p1.value(x) == p2.value(x)
        np.testing.assert_array_equal(p1.hessian(x), p2.hessian(x))

    def test_qp_indefinite(self):
        p = builtin("nonconvex_qp_simplex", 10, seed=0)
        w = np.linalg.eigvalsh(p.hessian(p.x0))
        assert w[0] < 0 < w[-1]

    def test_regularized_loss_nonnegative(self, rng):
        p = builtin("regularized_loss", 6, seed=1)
        assert p.m == 0
        for _ in range(20):
            x = np.exp(rng.standard_normal(6))
            assert p.value(x) >= 0.0

    def test_soc_quadratic_start(self):
        p = builtin("soc_quadratic", 10, m=2, seed=0)
        assert is_interior(p.cone, p.x0)
        np.testing.assert_allclose(p.affine.A @ p.x0, p.affine.b, atol=1e-14)

    def test_soc_quadratic_blocks(self):
        # k equal SOC blocks, each anchored at (2, w/||w||), the first row summing their t
        p = builtin("soc_quadratic", 12, m=2, seed=3, blocks=4)
        assert p.cone.blocks == (ConeBlock(SOC, 3),) * 4
        x0 = p.x0.reshape(4, 3)
        np.testing.assert_array_equal(x0[:, 0], 2.0)
        np.testing.assert_allclose(np.linalg.norm(x0[:, 1:], axis=1), 1.0, rtol=1e-15)
        np.testing.assert_array_equal(p.affine.A[0], np.tile([1.0, 0.0, 0.0], 4))
        assert p.affine.b[0] == 8.0
        assert is_interior(p.cone, p.x0)
        np.testing.assert_allclose(p.affine.A @ p.x0, p.affine.b, atol=1e-14)
        assert p.serial == {"builtin": "soc_quadratic", "n": 12,
                            "params": {"m": 2, "seed": 3, "blocks": 4}}
        again = problem_from_dict(json.loads(json.dumps(p.serial)))
        assert again.cone == p.cone and again.x0.tobytes() == p.x0.tobytes()

    def test_soc_quadratic_one_block_keeps_its_draws_and_serial(self):
        one = builtin("soc_quadratic", 10, m=3, seed=1, blocks=1)
        default = builtin("soc_quadratic", 10, m=3, seed=1)
        assert one.serial == default.serial == {"builtin": "soc_quadratic", "n": 10,
                                                "params": {"m": 3, "seed": 1}}
        assert one.cone == default.cone == second_order(10)
        for got, want in ((one.x0, default.x0), (one.affine.A, default.affine.A),
                          (one.affine.b, default.affine.b),
                          (one.hessian(one.x0), default.hessian(default.x0))):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, blocks", [(12, 5), (12, 12), (12, 0), (12, -2)])
    def test_soc_quadratic_blocks_must_divide_n_into_cones(self, n, blocks):
        with pytest.raises(ValueError, match="blocks must divide n"):
            builtin("soc_quadratic", n, blocks=blocks)
        with pytest.raises(SchemaError, match="bad builtin parameters"):
            problem_from_dict({"builtin": "soc_quadratic", "n": n, "params": {"blocks": blocks}})

    def test_all_builtins_ship_interior_feasible_start(self):
        for name in BUILTIN_NAMES:
            p = builtin(name, 8)
            assert p.x0 is not None
            assert is_interior(p.cone, p.x0)
            if p.m:
                assert np.max(np.abs(p.affine.A @ p.x0 - p.affine.b)) <= 1e-12

    def test_unknown_name(self):
        with pytest.raises(UnknownProblem):
            builtin("does_not_exist", 5)

    def test_unknown_param(self):
        with pytest.raises(UnknownProblem):
            builtin("negnorm_simplex", 5, gamma=2.0)


# one set of non-default parameters per builtin, at n = 12
NON_DEFAULT = {
    "pnorm_simplex": {"p": 0.3},
    "negnorm_simplex": {},
    "nonconvex_qp_simplex": {"seed": 4},
    "regularized_loss": {"p": 0.7, "seed": 2},
    "soc_quadratic": {"m": 3, "seed": 5, "blocks": 4},
}


class TestBuiltinTable:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("non_default", [False, True])
    def test_serial_rebuilds_the_instance_bit_for_bit(self, name, non_default):
        p = builtin(name, 12, **(NON_DEFAULT[name] if non_default else {}))
        if non_default:
            assert p.serial["params"] == NON_DEFAULT[name]
        q = problem_from_dict(json.loads(json.dumps(p.serial)))
        assert (q.name, q.cone, q.serial) == (p.name, p.cone, p.serial)
        x = p.x0
        for got, want in ((q.x0, x), (q.affine.A, p.affine.A), (q.affine.b, p.affine.b),
                          (q.hessian(x), p.hessian(x))):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert q.value(x) == p.value(x)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_unknown_parameter(self, name):
        with pytest.raises(UnknownProblem, match="unknown parameters"):
            builtin(name, 12, gamma=2.0)
        with pytest.raises(UnknownProblem, match="unknown parameters"):
            problem_from_dict({"builtin": name, "n": 12, "params": {"gamma": 2.0}})

    @pytest.mark.parametrize("name", [name for name in BUILTIN_NAMES if "seed" in NON_DEFAULT[name]])
    def test_negative_seed_is_refused_by_name(self, name):
        # before numpy's generator sees it, whose message names no field
        with pytest.raises(ValueError, match="'seed' must be nonnegative"):
            builtin(name, 12, seed=-1)
        with pytest.raises(SchemaError, match="'seed' must be nonnegative"):
            problem_from_dict({"builtin": name, "n": 12, "params": {"seed": -1}})

    @pytest.mark.parametrize("name, key", [(name, key) for name in BUILTIN_NAMES
                                           for key in NON_DEFAULT[name]])
    @pytest.mark.parametrize("value", ["abc", [1.0], None])
    def test_non_numeric_parameter_in_a_file(self, name, key, value):
        with pytest.raises(SchemaError, match="bad builtin parameters"):
            problem_from_dict({"builtin": name, "n": 12, "params": {key: value}})


class TestPerturb:
    def test_value_and_gradient(self):
        base = builtin("negnorm_simplex", 2)
        zero = perturb(base, sigma=1.0)
        x = np.array([1.0, 2.0])
        assert zero.value(x) == pytest.approx(base.value(x) + 5.0)
        np.testing.assert_allclose(zero.gradient(x), base.gradient(x) + 2.0 * x)

    def test_hessian_shift(self):
        base = builtin("nonconvex_qp_simplex", 5, seed=2)
        sigma = 0.7
        shifted = perturb(base, sigma)
        x = np.full(5, 0.2)
        w0 = np.linalg.eigvalsh(base.hessian(x))
        w1 = np.linalg.eigvalsh(shifted.hessian(x))
        np.testing.assert_allclose(w1, w0 + 2 * sigma, atol=1e-12)

    def test_sigma_positive(self):
        # NaN fails no "<= 0" test, and would give a NaN objective
        for sigma in (0.0, -1.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="sigma"):
                perturb(builtin("negnorm_simplex", 2), sigma)

    def test_hessian_bit_equal_to_adding_the_identity_and_base_unwritten(self):
        # the shift goes onto the diagonal of a fresh array: the same bits as
        # base + 2 sigma I, signed zeros included, while the base array (a builtin
        # quadratic hands out its one Q) stays as it was
        rng = np.random.default_rng(3)
        n = 6
        base = builtin("nonconvex_qp_simplex", n, seed=2)
        x = base.x0
        hessians = [base.hessian(x)]
        for _ in range(50):
            h = rng.standard_normal((n, n))
            h[rng.random((n, n)) < 0.3] = 0.0
            h[rng.random((n, n)) < 0.3] = -0.0
            hessians.append(h)
        for h in hessians:
            kept = h.copy()
            problem = dataclasses.replace(base, hessian=lambda x, h=h: h)
            for sigma in (0.7, 1e-300, 2.5e5):
                got = perturb(problem, sigma).hessian(x)
                assert got is not h
                assert got.tobytes() == (h + 2.0 * sigma * np.eye(n)).tobytes()
            assert h.tobytes() == kept.tobytes()
        assert base.hessian(x) is hessians[0]


def finite_diff_check(problem, x, h=1e-6):
    """Central-difference consistency report for the gradient and Hessian.

    Errors are relative to the scale of the analytic quantity (floored at 1).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    grad = problem.gradient(x)
    scale_g = max(1.0, float(np.max(np.abs(grad))))
    max_grad_err = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd = (problem.value(x + e) - problem.value(x - e)) / (2.0 * h)
        max_grad_err = max(max_grad_err, abs(fd - grad[i]) / scale_g)

    hess_vec = problem.hess_vec_at(x)
    hess_cols = np.column_stack([hess_vec(e) for e in np.eye(n)])
    scale_h = max(1.0, float(np.max(np.abs(hess_cols))))
    max_hess_err = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        fd_col = (problem.gradient(x + e) - problem.gradient(x - e)) / (2.0 * h)
        max_hess_err = max(max_hess_err, float(np.max(np.abs(fd_col - hess_cols[:, i]))) / scale_h)
    return {"max_grad_err": max_grad_err, "max_hess_err": max_hess_err}


class TestFiniteDiff:
    def test_quadratic_is_exact(self):
        p = builtin("nonconvex_qp_simplex", 6, seed=3)
        report = finite_diff_check(p, np.full(6, 1 / 6), h=1e-5)
        assert report["max_grad_err"] <= 1e-8
        assert report["max_hess_err"] <= 1e-8

    def test_pnorm_at_ones(self):
        p = builtin("pnorm_simplex", 5, p=0.5)
        report = finite_diff_check(p, np.ones(5), h=1e-6)
        assert report["max_grad_err"] <= 1e-6
        assert report["max_hess_err"] <= 1e-6

    def test_detects_corruption(self):
        p = builtin("negnorm_simplex", 4)
        broken = builtin("negnorm_simplex", 4)
        broken.gradient = lambda x: -x + 0.01
        report = finite_diff_check(broken, np.full(4, 0.25), h=1e-6)
        assert report["max_grad_err"] == pytest.approx(0.01, rel=1e-2)

    def test_all_builtins_consistent(self, rng):
        for name in BUILTIN_NAMES:
            p = builtin(name, 6)
            for _ in range(5):
                x = random_interior_point(p.cone, rng)
                report = finite_diff_check(p, x, h=1e-6)
                assert report["max_grad_err"] <= 1e-5, name
                assert report["max_hess_err"] <= 1e-5, name


class TestFileFormat:
    def test_builtin_reference(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"builtin": "negnorm_simplex", "n": 10}))
        p = load_problem(path)
        assert p.name == "negnorm_simplex"
        assert p.value(np.full(10, 0.1)) == pytest.approx(-0.05)

    def test_round_trip_builtin(self, tmp_path):
        p = builtin("nonconvex_qp_simplex", 7, seed=9)
        path = tmp_path / "qp.json"
        save_problem(p, path)
        q = load_problem(path)
        x = np.full(7, 1 / 7)
        assert q.value(x) == p.value(x)
        np.testing.assert_array_equal(q.hessian(x), p.hessian(x))
        assert q.serial == p.serial

    def test_round_trip_explicit(self, tmp_path):
        data = {
            "name": "tiny",
            "n": 3,
            "cone": [{"type": "orthant", "dim": 1}, {"type": "soc", "dim": 2}],
            "A": [[1.0, 1.0, 0.0]],
            "b": [1.5],
            "objective": {"quadratic": {"Q": np.eye(3).tolist(), "c": [0.0, -1.0, 0.5]}},
            "x0": [0.5, 1.0, 0.2],
        }
        p = problem_from_dict(data)
        path = tmp_path / "t.json"
        save_problem(p, path)
        q = load_problem(path)
        assert q.serial == p.serial
        x = np.array([0.4, 1.1, 0.3])
        assert q.value(x) == p.value(x)

    def test_explicit_file_without_constraints(self, tmp_path):
        # no "A" and no "b": m = 0, and the file solves, certifies and round-trips
        from conebarrier.solver import SolverParams, solve

        q_mat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.2], [0.0, 0.2, 1.0]])
        data = {
            "n": 3,
            "cone": [{"type": "orthant", "dim": 1}, {"type": "soc", "dim": 2}],
            "objective": {"quadratic": {"Q": q_mat.tolist(),
                                        "c": (-q_mat @ [1.0, 2.0, 0.5]).tolist()}},
            "x0": [1.0, 1.0, 0.0],
        }
        p = problem_from_dict(data)
        assert p.m == 0 and p.affine.A.shape == (0, 3)
        params = SolverParams(epsilon=1e-2, seed=7)
        res = solve(p, p.x0, params)
        assert res.certified and res.lambda_final.shape == (0,)
        assert res.trace.certificate.fosp_ok and res.trace.certificate.sosp_ok
        path = tmp_path / "free.json"
        save_problem(p, path)
        assert "A" not in json.loads(path.read_text())
        q = load_problem(path)
        assert q.m == 0 and q.serial == p.serial
        again = solve(q, q.x0, params)
        assert again.iterations == res.iterations
        assert np.array_equal(again.x_final, res.x_final)

    def test_soc_dim_one_rejected(self):
        data = {
            "n": 1,
            "cone": [{"type": "soc", "dim": 1}],
            "objective": {"quadratic": {"Q": [[1.0]], "c": [0.0]}},
            "x0": [1.0],
        }
        with pytest.raises(SchemaError):
            problem_from_dict(data)

    def test_missing_field(self):
        with pytest.raises(SchemaError):
            problem_from_dict({"n": 2})

    def test_dimension_mismatch(self):
        data = {
            "n": 3,
            "cone": [{"type": "orthant", "dim": 2}],
            "objective": {"quadratic": {"Q": np.eye(3).tolist(), "c": [0, 0, 0]}},
            "x0": [1, 1, 1],
        }
        with pytest.raises(SchemaError):
            problem_from_dict(data)

    def test_parse_error_has_location(self, tmp_path):
        from conebarrier.errors import ParseError

        path = tmp_path / "bad.json"
        path.write_text("{ not json }")
        with pytest.raises(ParseError, match=r":\d+:\d+:"):
            load_problem(path)


# one explicit file with A and b, and builtin references with integer and float parameters
EXPLICIT = {
    "name": "probe", "n": 3, "cone": [{"type": "orthant", "dim": 1}, {"type": "soc", "dim": 2}],
    "A": [[1.0, 1.0, 0.0]], "b": [1.5],
    "objective": {"quadratic": {"Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.2], [0.0, 0.2, 1.0]],
                                "c": [0.0, -1.0, 0.5]}},
    "x0": [0.5, 1.0, 0.2],
}
SOC_REFERENCE = {"builtin": "soc_quadratic", "n": 12, "params": {"m": 2, "seed": 0, "blocks": 4}}
LOSS_REFERENCE = {"builtin": "regularized_loss", "n": 6, "params": {"p": 0.5, "seed": 1}}


def substituted(doc, path, value):
    """A deep copy of doc with the value at path (keys and indices) replaced."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def field_paths(node, path=()):
    """The path of node and of every value nested in it."""
    yield path
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from field_paths(child, path + (key,))


INF, NAN = math.inf, math.nan
# (id, document, the field its error must name); before the loader read every value through
# _number and _array, each of these raised an untyped error (OverflowError, TypeError, numpy's
# ValueError or "SVD did not converge"), loaded a value other than the one written (truncated,
# from a bool or a string, non-finite, flattened), or was refused for another reason ("A" with
# an infinite entry as "not of full row rank")
PROBES = [
    ("builtin-n-inf", substituted(SOC_REFERENCE, ("n",), INF), "n"),
    ("builtin-n-nan", substituted(SOC_REFERENCE, ("n",), NAN), "n"),
    ("builtin-n-2.5", substituted(SOC_REFERENCE, ("n",), 2.5), "n"),
    ("builtin-n-12.0", substituted(SOC_REFERENCE, ("n",), 12.0), "n"),
    ("builtin-n-string", substituted(SOC_REFERENCE, ("n",), "12"), "n"),
    ("builtin-n-true", substituted(SOC_REFERENCE, ("n",), True), "n"),
    ("builtin-n-null", substituted(SOC_REFERENCE, ("n",), None), "n"),
    ("builtin-n-list", substituted(SOC_REFERENCE, ("n",), [12]), "n"),
    ("seed-true", substituted(SOC_REFERENCE, ("params", "seed"), True), "seed"),
    ("seed-2.7", substituted(SOC_REFERENCE, ("params", "seed"), 2.7), "seed"),
    ("seed-inf", substituted(SOC_REFERENCE, ("params", "seed"), INF), "seed"),
    ("seed-string", substituted(SOC_REFERENCE, ("params", "seed"), "3"), "seed"),
    ("seed-negative", substituted(SOC_REFERENCE, ("params", "seed"), -1), "seed"),
    ("m-inf", substituted(SOC_REFERENCE, ("params", "m"), INF), "m"),
    ("m-nan", substituted(SOC_REFERENCE, ("params", "m"), NAN), "m"),
    ("blocks-4.5", substituted(SOC_REFERENCE, ("params", "blocks"), 4.5), "blocks"),
    ("p-string", substituted(LOSS_REFERENCE, ("params", "p"), "0.3"), "p"),
    ("p-inf", substituted(LOSS_REFERENCE, ("params", "p"), INF), "p"),
    ("explicit-n-inf", substituted(EXPLICIT, ("n",), INF), "n"),
    ("explicit-n-3.0", substituted(EXPLICIT, ("n",), 3.0), "n"),
    ("explicit-n-string", substituted(EXPLICIT, ("n",), "3"), "n"),
    ("dim-1.7", substituted(EXPLICIT, ("cone", 0, "dim"), 1.7), "dim"),
    ("dim-inf", substituted(EXPLICIT, ("cone", 1, "dim"), INF), "dim"),
    ("dim-null", substituted(EXPLICIT, ("cone", 0, "dim"), None), "dim"),
    ("dim-string", substituted(EXPLICIT, ("cone", 0, "dim"), "1"), "dim"),
    ("A-inf", substituted(EXPLICIT, ("A", 0, 1), INF), "A"),
    ("A-nan", substituted(EXPLICIT, ("A", 0, 1), NAN), "A"),
    ("A-string", substituted(EXPLICIT, ("A", 0, 1), "a"), "A"),
    ("A-ragged", substituted(EXPLICIT, ("A",), [[1.0, 1.0], [1.0]]), "A"),
    ("b-inf", substituted(EXPLICIT, ("b", 0), INF), "b"),
    ("b-nested", substituted(EXPLICIT, ("b",), [[1.5]]), "b"),
    ("Q-inf", substituted(EXPLICIT, ("objective", "quadratic", "Q", 0, 0), INF), "Q"),
    ("Q-object", substituted(EXPLICIT, ("objective", "quadratic", "Q"), {"a": 1}), "Q"),
    ("c-strings", substituted(EXPLICIT, ("objective", "quadratic", "c"), ["0", "-1", "0.5"]), "c"),
    ("x0-nan", substituted(EXPLICIT, ("x0", 0), NAN), "x0"),
    ("x0-bool", substituted(EXPLICIT, ("x0", 2), True), "x0"),
    ("name-number", substituted(EXPLICIT, ("name",), 5), "name"),
]

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=8,
)


class TestReaders:
    @pytest.mark.parametrize("doc, field", [probe[1:] for probe in PROBES],
                             ids=[probe[0] for probe in PROBES])
    def test_malformed_value_raises_a_schema_error_naming_its_field(self, doc, field):
        with pytest.raises(SchemaError, match=f"'{field}'"):
            problem_from_dict(json.loads(json.dumps(doc)))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data(), value=JSON_VALUES)
    def test_any_value_in_any_field_loads_and_round_trips_or_is_refused(self, data, value):
        # integers are drawn within [-64, 64], so that no size or seed allocates more than a few MB
        base = data.draw(st.sampled_from([EXPLICIT, SOC_REFERENCE, LOSS_REFERENCE]))
        doc = substituted(base, data.draw(st.sampled_from(list(field_paths(base)))), value)
        try:
            p = problem_from_dict(doc)
        except (SchemaError, UnknownProblem):
            return
        q = problem_from_dict(json.loads(json.dumps(p.serial)))
        assert json.dumps(q.serial) == json.dumps(p.serial)
        assert q.x0.tobytes() == p.x0.tobytes() and q.cone == p.cone
