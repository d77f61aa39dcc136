"""Per-iteration solve trace with CSV and JSON serialization.

The CSV schema is fixed:

    k,phi_mu,residual,branch,alpha,dir_norm,cg_iters,lanczos_iters

and identical solver inputs (including the seed) produce byte-identical
trace files.  The JSON form additionally carries the operation counters and
the final certificate report.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

BRANCH_CG_SOL = "CG_SOL"
BRANCH_CG_NC = "CG_NC"
BRANCH_MEO_NC = "MEO_NC"
BRANCH_TERMINATE = "TERMINATE"

CSV_HEADER = "k,phi_mu,residual,branch,alpha,dir_norm,cg_iters,lanczos_iters"


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

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)

    def to_csv_row(self) -> str:
        return (
            f"{self.k},{self.phi_mu!r},{self.residual!r},{self.branch},"
            f"{self.alpha!r},{self.dir_norm!r},{self.cg_iters},{self.lanczos_iters}"
        )


@dataclass
class SolveTrace:
    records: list[IterationRecord] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    certificate: Any = None  # CertificateReport, set after termination

    def add(self, record: IterationRecord) -> None:
        self.records.append(record)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "records": [r.to_dict() for r in self.records],
            "counters": dict(self.counters),
            "certificate": self.certificate.to_dict() if self.certificate is not None else None,
        }

    def write_csv(self, path: str | Path) -> None:
        lines = [CSV_HEADER] + [r.to_csv_row() for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n")

    def write_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2) + "\n")
