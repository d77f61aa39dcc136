"""Per-iteration solve trace with CSV and JSON serialization.

The CSV schema is fixed:

    k,phi_mu,residual,branch,alpha,dir_norm,cg_iters,lanczos_iters

and identical solver inputs (including the seed) produce byte-identical
trace files.  The JSON form additionally carries the operation counters and
the final certificate report.

The trace is stored column by column in ``array.array`` buffers, one per
field, with the branch as a one-byte code into ``BRANCHES``: a row costs
about 58 bytes, not a Python object.  ``SolveTrace.records`` builds the
``IterationRecord`` rows on each access, and ``write_csv`` streams the rows
from the columns to the file one at a time.
"""
from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path
from typing import Any, Iterator

BRANCH_CG_SOL = "CG_SOL"
BRANCH_CG_NC = "CG_NC"
BRANCH_MEO_NC = "MEO_NC"
BRANCH_TERMINATE = "TERMINATE"

BRANCHES = (BRANCH_CG_SOL, BRANCH_CG_NC, BRANCH_MEO_NC, BRANCH_TERMINATE)
_BRANCH_CODE = {name: code for code, name in enumerate(BRANCHES)}

CSV_HEADER = "k,phi_mu,residual,branch,alpha,dir_norm,cg_iters,lanczos_iters"
_FIELDS = tuple(CSV_HEADER.split(","))
_CSV_ROW = "{},{!r},{!r},{},{!r},{!r},{},{}\n"


@dataclass
class IterationRecord:
    k: int
    phi_mu: float
    residual: float
    branch: str
    alpha: float
    dir_norm: float
    cg_iters: int
    lanczos_iters: int


class SolveTrace:
    """One row per outer iteration, stored as columns, plus counters and certificate."""

    def __init__(self) -> None:
        self.k = array("q")
        self.phi_mu = array("d")
        self.residual = array("d")
        self.branch = array("B")  # index into BRANCHES
        self.alpha = array("d")
        self.dir_norm = array("d")
        self.cg_iters = array("q")
        self.lanczos_iters = array("q")
        self.counters: dict[str, int] = {}
        self.certificate: Any = None  # CertificateReport, set after termination

    def append(self, k: int, phi_mu: float, residual: float, branch: str, alpha: float,
               dir_norm: float, cg_iters: int, lanczos_iters: int) -> None:
        """Add one row; ``branch`` is one of ``BRANCHES``."""
        self.k.append(k)
        self.phi_mu.append(phi_mu)
        self.residual.append(residual)
        self.branch.append(_BRANCH_CODE[branch])
        self.alpha.append(alpha)
        self.dir_norm.append(dir_norm)
        self.cg_iters.append(cg_iters)
        self.lanczos_iters.append(lanczos_iters)

    def _rows(self) -> Iterator[tuple]:
        """The rows as tuples in CSV column order, read from the columns one at a time."""
        return zip(self.k, self.phi_mu, self.residual, map(BRANCHES.__getitem__, self.branch),
                   self.alpha, self.dir_norm, self.cg_iters, self.lanczos_iters)

    @property
    def records(self) -> list[IterationRecord]:
        """The rows as a new list of ``IterationRecord``, built on each access."""
        return list(starmap(IterationRecord, self._rows()))

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w") as out:
            out.write(CSV_HEADER + "\n")
            out.writelines(starmap(_CSV_ROW.format, self._rows()))

    def write_json(self, path: str | Path) -> None:
        """Rows, counters and certificate as one indented JSON document, one plain dict per row."""
        doc = {"records": [dict(zip(_FIELDS, row)) for row in self._rows()],
               "counters": dict(self.counters),
               "certificate": None if self.certificate is None else self.certificate.to_dict()}
        with open(path, "w") as out:
            json.dump(doc, out, indent=2)
            out.write("\n")
