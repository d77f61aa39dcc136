import dataclasses
import json

import numpy as np
import pytest

from conebarrier.cli import _params_from_args, build_parser, fit_loglog_slope, main
from conebarrier.problems import load_problem
from conebarrier.solver import SolverParams, solve
from conebarrier.trace import CSV_HEADER


@pytest.fixture
def negnorm_file(tmp_path):
    path = tmp_path / "negnorm10.json"
    path.write_text(json.dumps({"builtin": "negnorm_simplex", "n": 10}))
    return path


@pytest.fixture
def qp_file(tmp_path):
    path = tmp_path / "qp8.json"
    path.write_text(json.dumps({"builtin": "nonconvex_qp_simplex", "n": 8,
                                "params": {"seed": 0}}))
    return path


class TestSolveCommand:
    def test_certified_run(self, negnorm_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["solve", str(negnorm_file), "--eps", "1e-3", "--seed", "7",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0] == CSV_HEADER
        assert len(text) >= 2
        summary = capsys.readouterr().out
        assert "status=sosp_certified" in summary

    def test_eps_out_of_range(self, negnorm_file, capsys):
        code = main(["solve", str(negnorm_file), "--eps", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_huge_hessian_ends_with_a_status(self, tmp_path, capsys):
        # Q = 1e32 I puts capped CG's tau at 1.0 and its T at +inf, where T was a bare
        # ZeroDivisionError; the solve now ends with a status, not a traceback
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({
            "n": 2, "cone": [{"type": "orthant", "dim": 2}], "A": [[1, 1]], "b": [2], "x0": [1, 1],
            "objective": {"quadratic": {"Q": [[1e32, 0], [0, 1e32]], "c": [1e32, -1e32]}}}))
        assert main(["solve", str(path)]) == 1
        assert "status=line_search_failure" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.json")])
        assert code == 2

    def test_json_trace_includes_counters(self, qp_file, tmp_path):
        out = tmp_path / "trace.json"
        code = main(["solve", str(qp_file), "--eps", "1e-2", "--out", str(out),
                     "--format", "json", "--max-iters", "100000"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"records", "counters", "certificate"}
        assert payload["counters"]["cholesky"] == len(payload["records"])
        assert payload["certificate"]["sosp_ok"] is True

    def test_byte_identical_reruns(self, qp_file, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"trace_{tag}.csv"
            code = main(["solve", str(qp_file), "--eps", "1e-2", "--seed", "3",
                         "--out", str(out), "--max-iters", "100000"])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_fosp_only_flag(self, qp_file, tmp_path):
        code = main(["solve", str(qp_file), "--eps", "1e-2", "--fosp-only",
                     "--max-iters", "100000"])
        assert code == 0


class TestSolverFlags:
    def test_omitted_flags_keep_the_solver_defaults(self):
        solve_args = build_parser().parse_args(["solve", "p.json"])
        assert _params_from_args(solve_args) == SolverParams(epsilon=1e-3)
        sweep_args = build_parser().parse_args(["sweep", "p.json", "--eps", "1e-2"])
        assert _params_from_args(sweep_args, eps=1e-2) == SolverParams(epsilon=1e-2)

    @pytest.mark.parametrize("argv, field", [
        (["--beta", "0.7"], "beta"), (["--zeta", "0.3"], "zeta"), (["--theta", "0.7"], "theta"),
        (["--eta", "0.1"], "eta"), (["--delta", "0.05"], "delta"), (["--seed", "5"], "seed"),
        (["--max-iters", "10"], "max_outer_iters"), (["--fosp-only"], "fosp_only"),
    ])
    def test_one_flag_changes_only_its_own_field(self, argv, field):
        got = _params_from_args(build_parser().parse_args(["solve", "p.json", *argv]))
        default = SolverParams(epsilon=1e-3)
        changed = {f.name for f in dataclasses.fields(SolverParams)
                   if getattr(got, f.name) != getattr(default, f.name)}
        assert changed == {field}


class TestSweepCommand:
    def test_header_and_rows_carry_every_counter(self, qp_file, capsys):
        code = main(["sweep", str(qp_file), "--eps", "1e-2"])
        assert code == 0
        header, row, _ = capsys.readouterr().out.splitlines()
        assert header == ("eps,iterations,cholesky,hess_vec,tri_solve,matT_mat,"
                          "grad_eval,fun_eval,status")
        problem = load_problem(qp_file)
        result = solve(problem, problem.x0, SolverParams(epsilon=1e-2))
        assert row.split(",") == ["0.01", str(result.iterations),
                                  *map(str, result.trace.counters.values()),
                                  result.status.value]

    def test_single_eps_degenerates(self, qp_file, capsys):
        code = main(["sweep", str(qp_file), "--eps", "1e-2", "--max-iters", "100000"])
        assert code == 0
        out = capsys.readouterr().out
        assert "loglog_slope=0.0000" in out

    def test_repeated_eps_degenerates(self, qp_file, capsys):
        # one distinct tolerance fixes no slope: 0.0, with no 0/0 (RuntimeWarnings are errors here)
        code = main(["sweep", str(qp_file), "--eps", "1e-2", "1e-2"])
        assert code == 0
        assert "loglog_slope=0.0000" in capsys.readouterr().out
        assert fit_loglog_slope([1e-3, 1e-3, 1e-3], [10, 12, 11]) == 0.0

    def test_empty_eps_usage_error(self, qp_file, capsys):
        assert main(["sweep", str(qp_file), "--eps"]) == 2

    def test_slope_fit(self):
        # exact power law iterations = (1/eps)^1.5
        eps = [1e-2, 1e-3, 1e-4]
        iters = [(1 / e) ** 1.5 for e in eps]
        assert fit_loglog_slope(eps, iters) == pytest.approx(1.5)


class TestCertifyCommand:
    def test_round_trip_closure(self, qp_file, tmp_path, capsys):
        sol = tmp_path / "solution.json"
        code = main(["solve", str(qp_file), "--eps", "1e-2",
                     "--save-solution", str(sol), "--max-iters", "100000"])
        assert code == 0
        payload = json.loads(sol.read_text())
        x_path = tmp_path / "x.json"
        lam_path = tmp_path / "lam.json"
        x_path.write_text(json.dumps(payload["x"]))
        lam_path.write_text(json.dumps(payload["lambda"]))
        capsys.readouterr()
        code = main(["certify", str(qp_file), str(x_path), str(lam_path),
                     "--eps-g", "1e-2", "--sosp"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fosp_ok"] and report["sosp_ok"]

    def test_boundary_point_not_certified(self, negnorm_file, tmp_path, capsys):
        x_path = tmp_path / "x.json"
        lam_path = tmp_path / "lam.json"
        x = np.zeros(10)
        x[0] = 1.0
        x_path.write_text(json.dumps(x.tolist()))
        lam_path.write_text(json.dumps([1.0]))
        code = main(["certify", str(negnorm_file), str(x_path), str(lam_path)])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["interior_ok"] is False

    def test_wrong_length_lambda(self, negnorm_file, tmp_path, capsys):
        x_path = tmp_path / "x.json"
        lam_path = tmp_path / "lam.json"
        x_path.write_text(json.dumps((np.full(10, 0.1)).tolist()))
        lam_path.write_text(json.dumps([1.0, 2.0]))
        code = main(["certify", str(negnorm_file), str(x_path), str(lam_path)])
        assert code == 2

    def test_vector_file_without_a_usable_key(self, tmp_path, capsys):
        # an object with neither "lambda" nor "values" is a usage error, not a NaN multiplier
        problem = tmp_path / "qp3.json"
        problem.write_text(json.dumps({"builtin": "nonconvex_qp_simplex", "n": 3}))
        x_path = tmp_path / "x.json"
        lam_path = tmp_path / "lam.json"
        x_path.write_text(json.dumps({"x": [1 / 3, 1 / 3, 1 / 3]}))
        lam_path.write_text(json.dumps({"mult": [1.0]}))
        code = main(["certify", str(problem), str(x_path), str(lam_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'lambda'" in captured.err and "'values'" in captured.err
