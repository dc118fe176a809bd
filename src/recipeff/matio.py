"""CSV / JSON input and output.

Matrices travel as headerless CSV, n rows by n columns; vectors as a single
CSV row or a single column.  Writers emit 17 significant digits so a
save/load round trip is bit-exact.  Reports are serialized as JSON with
1-based vertex indices.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import ReciprocalMatrix, make_reciprocal
from .digraph import EfficiencyReport

FLOAT_FMT = "%.17g"


def _parse_rows(text: str, what: str) -> list[list[float]]:
    rows: list[list[float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for colno, tok in enumerate(line.split(","), start=1):
            try:
                row.append(float(tok))
            except ValueError:
                raise ValueError(
                    f"{what}: row {lineno}, column {colno}: "
                    f"cannot parse {tok.strip()!r}"
                ) from None
        rows.append(row)
    if not rows:
        raise ValueError(f"{what}: empty input")
    return rows


def load_matrix(path, mode: str = "validate") -> ReciprocalMatrix:
    """Read a reciprocal matrix from headerless CSV.

    mode is passed through to make_reciprocal: "validate" rejects
    non-reciprocal data, "symmetrize" rebuilds the lower triangle from the
    upper (for sources printing rounded reciprocals).
    """
    text = Path(path).read_text(encoding="utf-8")
    rows = _parse_rows(text, str(path))
    n = len(rows)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ValueError(
                f"{path}: row {lineno} has {len(row)} values, expected {n}"
            )
    return make_reciprocal(np.array(rows), mode=mode)


def load_vector(path) -> np.ndarray:
    """Read a positive vector from a one-row or one-column CSV."""
    text = Path(path).read_text(encoding="utf-8")
    rows = _parse_rows(text, str(path))
    if len(rows) == 1:
        v = np.array(rows[0])
    elif all(len(r) == 1 for r in rows):
        v = np.array([r[0] for r in rows])
    else:
        raise ValueError(f"{path}: expected a single CSV row or column")
    if not np.all(v > 0):
        raise ValueError(f"{path}: vector entries must be positive")
    return v


def save_matrix(A: ReciprocalMatrix, path) -> None:
    lines = [",".join(FLOAT_FMT % v for v in row) for row in A.a]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_vector(w, path) -> None:
    w = np.asarray(w, dtype=float)
    Path(path).write_text(
        ",".join(FLOAT_FMT % v for v in w) + "\n", encoding="utf-8"
    )


def report_to_dict(report: EfficiencyReport) -> dict:
    """JSON-ready view of an efficiency report (1-based vertices)."""
    return {
        "efficient": report.efficient,
        "perron_value": report.perron.r if report.perron is not None else None,
        "perron_vector": [float(v) for v in report.w],
        "edges": (np.argwhere(report.digraph.adj) + 1).tolist(),
        "scc_count": report.scc_count,
        "sources": list(report.sources),
        "sinks": list(report.sinks),
        "hamiltonian": list(report.hamiltonian) if report.hamiltonian else None,
        "certificate": (
            [float(v) for v in report.certificate]
            if report.certificate is not None
            else None
        ),
        "eps_rel": report.digraph.eps_rel,
    }


def save_report(report: dict, path) -> None:
    """Write the report as one line of compact JSON (the C encoder's form)."""
    Path(path).write_text(json.dumps(report) + "\n", encoding="utf-8")
