"""The columnar solve trace: its memory per row and per CSV write, and its bytes.

The reference formatter below writes each row the way the trace format
defines it, from the values ``solve`` hands to ``SolveTrace.append``.
"""
import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from conebarrier.certify import CertificateReport
from conebarrier.problems import builtin
from conebarrier.solver import SolverParams, SolveStatus, solve
from conebarrier.trace import BRANCHES, IterationRecord, SolveTrace

ROWS = 20_000
HEADER = "k,phi_mu,residual,branch,alpha,dir_norm,cg_iters,lanczos_iters"
FIELDS = HEADER.split(",")
TYPES = (int, float, float, str, float, float, int, int)


def reference_csv(rows) -> bytes:
    lines = [HEADER] + [
        f"{k},{phi!r},{res!r},{branch},{alpha!r},{dir_norm!r},{cg},{lanczos}"
        for k, phi, res, branch, alpha, dir_norm, cg, lanczos in rows
    ]
    return ("\n".join(lines) + "\n").encode()


def reference_json(rows, trace) -> bytes:
    payload = {
        "records": [dict(zip(FIELDS, row)) for row in rows],
        "counters": dict(trace.counters),
        "certificate": trace.certificate.to_dict(),
    }
    return (json.dumps(payload, indent=2) + "\n").encode()


def synthetic_trace() -> SolveTrace:
    trace = SolveTrace()
    for i in range(ROWS):
        trace.append(i, -i / 3.0, math.ldexp(1.0, -i % 60), BRANCHES[i % 4], 0.5**(i % 5),
                     i * 1e-3, i % 11, i % 27)
    return trace


def traced_bytes(fn) -> tuple[object, int, int]:
    """fn()'s result with the bytes it left allocated and its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, current - before, peak - before


def test_a_row_costs_at_most_80_bytes():
    # eight fixed-width columns take 57 bytes a row, plus the arrays' over-allocation;
    # a dataclass row with its own float objects took about 256
    trace, held, _ = traced_bytes(synthetic_trace)
    assert len(trace.k) == ROWS
    assert held / ROWS <= 80


def test_write_csv_streams_rows(tmp_path):
    # no list of rows and no joined copy: the peak stays within the file buffers,
    # where building and joining every row took about 5.5 MB
    trace = synthetic_trace()
    path = tmp_path / "trace.csv"
    _, _, peak = traced_bytes(lambda: trace.write_csv(path))
    assert peak <= 64 * 1024
    rows = [dataclasses.astuple(r) for r in trace.records]
    assert path.read_bytes() == reference_csv(rows)


def test_write_json_builds_one_plain_dict_per_row(tmp_path):
    # rows go from the columns into plain dicts and json.dump writes the text in
    # chunks; an IterationRecord plus its asdict copy per row, then the whole indented
    # string, peaked at about 38 MiB here
    trace = synthetic_trace()
    trace.counters = {"cholesky": ROWS, "tri_solve": 3 * ROWS}
    trace.certificate = CertificateReport(True, 0.0, True, True, 1e-4, True)
    path = tmp_path / "trace.json"
    _, _, peak = traced_bytes(lambda: trace.write_json(path))
    assert peak <= 12 * 2**20
    rows = [dataclasses.astuple(r) for r in trace.records]
    assert path.read_bytes() == reference_json(rows, trace)


def line_search_failure_problem():
    # phi is +inf at every trial point, so the first step's trials all fail
    base = builtin("nonconvex_qp_simplex", 6, seed=1)
    x0 = base.x0.copy()
    return dataclasses.replace(
        base, value=lambda x: base.value(x) if np.array_equal(x, x0) else math.inf
    )


SOLVES = {
    # CG_SOL, CG_NC and MEO_NC steps, then TERMINATE
    "negnorm_simplex": (lambda: builtin("negnorm_simplex", 5), {}),
    "line_search_failure": (line_search_failure_problem, {"max_backtracks": 2}),
}


@pytest.mark.parametrize("name", list(SOLVES))
def test_trace_bytes_and_records_match_the_reference(name, monkeypatch, tmp_path):
    make, extra = SOLVES[name]
    rows = []
    append = SolveTrace.append

    def spy(self, *row):
        rows.append(row)
        append(self, *row)

    monkeypatch.setattr(SolveTrace, "append", spy)
    problem = make()
    res = solve(problem, problem.x0, SolverParams(epsilon=1e-3, seed=7, **extra))
    if name == "negnorm_simplex":
        assert res.status is SolveStatus.SOSP_CERTIFIED
        assert {row[3] for row in rows} == set(BRANCHES)
    else:
        assert res.status is SolveStatus.LINE_SEARCH_FAILURE
        assert rows == [(0, rows[0][1], rows[0][2], "CG_SOL", 0.0, rows[0][5], rows[0][6], 0)]
    assert len(rows) == res.iterations + 1

    trace = res.trace
    trace.write_csv(tmp_path / "trace.csv")
    trace.write_json(tmp_path / "trace.json")
    assert (tmp_path / "trace.csv").read_bytes() == reference_csv(rows)
    assert (tmp_path / "trace.json").read_bytes() == reference_json(rows, trace)

    records = trace.records
    assert records is not trace.records  # a new list on each access
    assert len(records) == len(rows)
    csv_rows = (tmp_path / "trace.csv").read_bytes().splitlines()[1:]
    for record, row, csv_row in zip(records, rows, csv_rows):
        assert isinstance(record, IterationRecord)
        for field, kind, want in zip(FIELDS, TYPES, row):
            got = getattr(record, field)
            assert type(got) is kind and got == want, (record.k, field)
        # the record's own values, formatted, are write_csv's row
        assert reference_csv([dataclasses.astuple(record)]).splitlines()[1] == csv_row


def test_numpy_scalar_values_are_written_as_float_literals(tmp_path):
    # a value callback may return a numpy scalar, whose repr is not a float literal;
    # the float columns store it as a plain float, so the trace reads as with a float
    params = SolverParams(epsilon=1e-2, seed=7)
    base = builtin("nonconvex_qp_simplex", 6, seed=1)
    scalar = dataclasses.replace(base, value=lambda x: np.float64(base.value(x)))
    for name, problem in (("float", base), ("scalar", scalar)):
        res = solve(problem, problem.x0, params)
        res.trace.write_csv(tmp_path / f"{name}.csv")
        assert type(res.trace.records[0].phi_mu) is float
    assert (tmp_path / "scalar.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()
