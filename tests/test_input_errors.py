"""Each input check that rejects a bad argument raises its documented type.

One ``pytest.raises`` per check, grouped by the module that raises.
"""
import json

import numpy as np
import pytest

from conebarrier import SolverParams, builtin, solve
from conebarrier.certify import check_fosp, check_sosp_dense, reduced_min_eig
from conebarrier.cli import main
from conebarrier.cones import Cone, ConeBlock, barrier_factor, orthant, product
from conebarrier.counters import OpCounters
from conebarrier.errors import InfeasibleStart, ParamError, SchemaError, SizeError, UnknownProblem
from conebarrier.lanczos import min_eig_oracle
from conebarrier.linops import AffineData, IterationWorkspace, empty_affine
from conebarrier.problems import ConicProblem, problem_from_dict, save_problem
from conftest import tridiagonal_min_ritz


class TestSolver:
    def test_wrong_shape_x0(self):
        p = builtin("nonconvex_qp_simplex", 5)
        with pytest.raises(InfeasibleStart, match="shape"):
            solve(p, np.full(4, 0.25), SolverParams(epsilon=1e-2))

    @pytest.mark.parametrize("x0", [
        np.full(5, 0.2 + 0.1j), np.full(5, 0.2 + 0j), ["0.2"] * 5, [0.2, 0.2, 0.2, 0.2, None],
        [0.2, 0.2, 0.2, 0.2, [0.2]], np.full(5, True), "0.2",
    ], ids=["complex", "complex-zero-imaginary", "strings", "none", "ragged", "bool", "string"])
    def test_x0_not_real_numbers(self, x0):
        # a complex x0 was read as its real part, with only a ComplexWarning
        p = builtin("nonconvex_qp_simplex", 5)
        with pytest.raises(InfeasibleStart, match="real numbers"):
            solve(p, x0, SolverParams(epsilon=1e-2))

    @pytest.mark.parametrize("budget", ["max_outer_iters", "max_backtracks"])
    def test_budget_below_one(self, budget):
        with pytest.raises(ParamError, match="budgets"):
            SolverParams(epsilon=1e-2, **{budget: 0})

    @pytest.mark.parametrize("field, value", [
        ("max_outer_iters", 2.5), ("max_backtracks", 60.0), ("max_outer_iters", True),
        ("seed", False), ("seed", "3"), ("seed", 1.0), ("seed", -1), ("seed", np.int64(-2)),
    ])
    def test_budget_or_seed_not_a_nonnegative_integer(self, field, value):
        with pytest.raises(ParamError, match=field):
            SolverParams(epsilon=1e-2, **{field: value})

    def test_numpy_integers_are_integers(self):
        params = SolverParams(epsilon=1e-2, max_outer_iters=np.int64(5),
                              max_backtracks=np.int32(7), seed=np.uint8(3))
        assert (params.max_outer_iters, params.max_backtracks, params.seed) == (5, 7, 3)


class TestLinops:
    def test_factor_and_affine_disagree_on_n(self):
        factor = barrier_factor(orthant(3), np.ones(3))
        with pytest.raises(ValueError, match="disagree"):
            IterationWorkspace(empty_affine(4), factor, OpCounters())

    @pytest.mark.parametrize("a_entry, b_entry, field", [
        (np.nan, 1.0, "A"), (np.inf, 1.0, "A"), (1.0, np.nan, "b"), (1.0, -np.inf, "b"),
    ])
    def test_non_finite_affine_data(self, a_entry, b_entry, field):
        # checked before the rank, which reads NaN as an SVD failure and inf as rank deficiency
        a_mat = np.ones((1, 10))
        a_mat[0, 3] = a_entry
        with pytest.raises(ValueError, match=f"{field} has a non-finite entry"):
            AffineData(A=a_mat, b=np.array([b_entry]))


class TestCertify:
    def test_lambda_of_wrong_length(self):
        p = builtin("nonconvex_qp_simplex", 5)
        with pytest.raises(ValueError, match="lambda"):
            check_fosp(p, p.x0, np.zeros(2), eps_g=1e-2)

    @pytest.mark.parametrize("eps_g, eps_h, field", [
        (-1.0, 1e-2, "eps_g"), (0.0, 1e-2, "eps_g"), (np.nan, 1e-2, "eps_g"), (np.inf, 1e-2, "eps_g"),
        (1e-2, -5.0, "eps_h"), (1e-2, 0.0, "eps_h"), (1e-2, np.nan, "eps_h"), (1e-2, np.inf, "eps_h"),
    ])
    def test_tolerance_outside_positive_reals(self, eps_g, eps_h, field):
        p = builtin("nonconvex_qp_simplex", 5)
        lam = np.zeros(1)
        with pytest.raises(ParamError, match=field):
            check_sosp_dense(p, p.x0, lam, eps_g=eps_g, eps_h=eps_h)
        if field == "eps_g":
            with pytest.raises(ParamError, match=field):
                check_fosp(p, p.x0, lam, eps_g=eps_g)

    def test_hess_vec_only_problem(self):
        base = builtin("nonconvex_qp_simplex", 5)
        q_mat = base.hessian(base.x0)
        p = ConicProblem(name="hv-only", cone=base.cone, affine=base.affine, value=base.value,
                         gradient=base.gradient, hess_vec_fn=lambda x, v: q_mat.dot(v), x0=base.x0)
        with pytest.raises(SizeError, match="dense Hessian"):
            reduced_min_eig(p, p.x0)


class TestLanczos:
    def test_empty_tridiagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            tridiagonal_min_ritz(np.zeros(0), np.zeros(0))

    def test_nonpositive_eps(self):
        with pytest.raises(ValueError, match="eps"):
            min_eig_oracle(lambda v: v, 3, 0.0, 0.01)

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_delta_outside_unit_interval(self, delta):
        with pytest.raises(ValueError, match="delta"):
            min_eig_oracle(lambda v: v, 3, 0.1, delta)


class TestCones:
    def test_cone_without_blocks(self):
        with pytest.raises(ValueError, match="at least one block"):
            Cone(())

    @pytest.mark.parametrize("make", [lambda: ConeBlock("soc", 3.0), lambda: orthant(2.5),
                                      lambda: ConeBlock("orthant", True),
                                      lambda: ConeBlock("soc", np.float64(3.0)),
                                      lambda: ConeBlock("orthant", "2")],
                             ids=["float", "orthant_fraction", "bool", "numpy_float", "string"])
    def test_block_dimension_not_an_integer(self, make):
        with pytest.raises(ValueError, match="positive integer"):
            make()

    def test_numpy_integer_dimensions_are_accepted(self):
        cone = product(ConeBlock("orthant", np.int32(2)), ConeBlock("soc", np.int64(3)))
        assert cone.total_dim == 5
        assert json.loads(json.dumps(cone.describe())) == [{"type": "orthant", "dim": 2},
                                                           {"type": "soc", "dim": 3}]

    def test_cone_entry_not_a_block(self):
        with pytest.raises(ValueError, match="ConeBlock"):
            Cone((ConeBlock("orthant", 2), ("soc", 3)))


def explicit_qp(n=3):
    return {"n": n, "cone": [{"type": "orthant", "dim": n}],
            "objective": {"quadratic": {"Q": np.eye(n).tolist(), "c": np.zeros(n).tolist()}},
            "x0": np.ones(n).tolist()}


class TestProblems:
    def test_no_hessian_of_either_form(self):
        base = builtin("nonconvex_qp_simplex", 4)
        with pytest.raises(ValueError, match="Hessian"):
            ConicProblem(name="none", cone=base.cone, affine=base.affine,
                         value=base.value, gradient=base.gradient)

    def test_affine_and_cone_disagree(self):
        base = builtin("nonconvex_qp_simplex", 4)
        with pytest.raises(ValueError, match="disagree"):
            ConicProblem(name="bad", cone=orthant(5), affine=base.affine,
                         value=base.value, gradient=base.gradient, hessian=base.hessian)

    def test_pnorm_exponent_outside_unit_interval(self):
        with pytest.raises(ValueError, match="p must"):
            builtin("pnorm_simplex", 4, p=2.0)

    def test_nonpositive_n(self):
        with pytest.raises(ValueError, match="n must"):
            builtin("negnorm_simplex", 0)

    def test_soc_quadratic_needs_two_coordinates(self):
        with pytest.raises(ValueError, match="n >= 2"):
            builtin("soc_quadratic", 1)

    def test_soc_quadratic_row_count(self):
        with pytest.raises(ValueError, match="m <= n - 1"):
            builtin("soc_quadratic", 4, m=4)

    def test_file_not_an_object(self):
        with pytest.raises(SchemaError, match="JSON object"):
            problem_from_dict([1, 2])

    def test_unknown_builtin_in_file(self):
        with pytest.raises(UnknownProblem):
            problem_from_dict({"builtin": "no_such_problem", "n": 3})

    def test_bad_builtin_parameters_in_file(self):
        with pytest.raises(SchemaError, match="bad builtin parameters"):
            problem_from_dict({"builtin": "soc_quadratic", "n": 1})

    def test_affine_data_rejected_in_file(self):
        data = {**explicit_qp(), "A": [[1.0, 1.0, 1.0]], "b": [1.0, 2.0]}
        with pytest.raises(SchemaError, match="b has length"):
            problem_from_dict(data)

    def test_save_callback_problem(self, tmp_path):
        base = builtin("nonconvex_qp_simplex", 4)
        p = ConicProblem(name="callbacks", cone=base.cone, affine=base.affine,
                         value=base.value, gradient=base.gradient, hessian=base.hessian)
        with pytest.raises(SchemaError, match="no serializable form"):
            save_problem(p, tmp_path / "p.json")


class TestCli:
    @pytest.mark.parametrize("key", ["x", "values"])
    def test_certify_vector_of_wrong_length(self, tmp_path, capsys, key):
        problem, point = tmp_path / "p.json", tmp_path / "x.json"
        problem.write_text(json.dumps(explicit_qp()))
        point.write_text(json.dumps({key: [1.0, 1.0]}))
        assert main(["certify", str(problem), str(point), str(point)]) == 2
        assert "x has length 2, expected 3" in capsys.readouterr().err

    @pytest.mark.parametrize("problem_text, point_text, argv, shown", [
        (b'{"builtin": "nonconvex_qp_simplex", "n": Infinity}', None, ["--eps", "1e-2"], "'n'"),
        (b'{"builtin": "nonconvex_qp_simplex", "n": 2.5}', None, [], "'n'"),
        (b'{"builtin": "\xff"}', None, [], "cannot read"),
        (json.dumps(explicit_qp()).encode(), b'{"x": [1, 1,', [], "x.json:1:"),
        (json.dumps(explicit_qp()).encode(), b'{"x": [[1, 1, 1]]}', [], "'x'"),
        (json.dumps(explicit_qp()).encode(), None, ["--seed", "-1"], "seed"),
        (json.dumps(explicit_qp()).encode(), b"[1, 1, 1]", ["--eps-g", "-1"], "eps_g"),
        (json.dumps(explicit_qp()).encode(), b"[1, 1, 1]", ["--eps-g", "nan"], "eps_g"),
        (json.dumps(explicit_qp()).encode(), b"[1, 1, 1]", ["--eps-g", "inf"], "eps_g"),
        (json.dumps(explicit_qp()).encode(), b"[1, 1, 1]", ["--eps-g", "0", "--sosp"], "eps_g"),
        (json.dumps(explicit_qp()).encode(), b"[1, 1, 1]", ["--eps-g", "-1", "--sosp"], "eps_g"),
        (json.dumps(explicit_qp()).encode(), b"[1, 1, 1]", ["--eps-g", "1e-2", "--eps-h", "-5",
                                                            "--sosp"], "eps_h"),
    ])
    def test_bad_input_exits_2_without_a_traceback(self, tmp_path, capsys, problem_text,
                                                   point_text, argv, shown):
        # main catches only ConeBarrierError and OSError: any other exception would escape here
        problem, point = tmp_path / "p.json", tmp_path / "x.json"
        problem.write_bytes(problem_text)
        if point_text is None:
            argv = ["solve", str(problem), *argv]
        else:
            point.write_bytes(point_text)
            argv = ["certify", str(problem), str(point), str(point), *argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert shown in err and "Traceback" not in err
