"""CSV input and JSON output.

Matrices are read from headerless CSV, n rows by n columns, and vectors from one
CSV row or column, by numpy's C reader; `_parse_rows` reads the files it refuses.
Reports are JSON with 1-based vertex indices; `report_json` is the one encoder,
for files and for stdout.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from .core import ReciprocalMatrix, make_reciprocal
from .digraph import EfficiencyReport

_MARK = "\0"  # holds an array's place in the JSON text (see `report_json`)


def _parse_rows(text: str, what: str) -> list[tuple[int, np.ndarray]]:
    """The file line number and float array of each non-blank line.

    The reference for syntax, values and errors: numpy converts each token
    with `float`, and the per-token scan runs only to locate a failure.
    """
    rows: list[tuple[int, np.ndarray]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        toks = line.split(",")
        try:
            rows.append((lineno, np.array(toks, dtype=float)))
        except ValueError:
            for colno, tok in enumerate(toks, start=1):
                try:
                    float(tok)
                except ValueError:
                    raise ValueError(
                        f"{what}: row {lineno}, column {colno}: "
                        f"cannot parse {tok.strip()!r}"
                    ) from None
            raise
    if not rows:
        raise ValueError(f"{what}: empty input")
    return rows


def _read_rows(path) -> list[tuple[int, np.ndarray]]:
    # utf-8-sig drops the byte-order mark that spreadsheet exports begin with
    return _parse_rows(Path(path).read_text(encoding="utf-8-sig"), str(path))


def _read_array(path) -> np.ndarray | None:
    """loadtxt's 2-D array of `_parse_rows`'s lines, or None where `_parse_rows` must read."""
    with open(path, encoding="utf-8-sig") as fh, warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data")
        try:
            return np.loadtxt((s for line in fh for s in line.splitlines(True)),
                              delimiter=",", comments=None, ndmin=2)
        except (ValueError, UserWarning):  # a token or line it refuses, or no data
            return None


def load_matrix(path, mode: str = "validate") -> ReciprocalMatrix:
    """Read a reciprocal matrix from headerless CSV.

    mode is passed through to make_reciprocal: "validate" rejects
    non-reciprocal data, "symmetrize" rebuilds the lower triangle from the
    upper (for sources printing rounded reciprocals).
    """
    a = _read_array(path)
    if a is None or len(a) != a.shape[1]:  # `_parse_rows` numbers the file's lines
        rows = _read_rows(path)
        for lineno, row in rows:
            if len(row) != len(rows):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} values, expected {len(rows)}"
                )
        a = [row for _, row in rows]
    return make_reciprocal(a, mode=mode)


def load_vector(path) -> np.ndarray:
    """Read a positive vector from a one-row or one-column CSV."""
    a = _read_array(path)
    rows = [row for _, row in _read_rows(path)] if a is None else a
    if len(rows) == 1:
        v = rows[0]
    elif all(len(r) == 1 for r in rows):
        v = np.concatenate(rows)
    else:
        raise ValueError(f"{path}: expected a single CSV row or column")
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError(f"{path}: vector entries must be positive and finite")
    return v


def report_to_dict(report: EfficiencyReport) -> dict:
    """JSON-ready view of an efficiency report (1-based vertices).

    `edges` is the (m, 2) int array of edges in row-major order, for
    `report_json` to write; every other value is a JSON type.
    """
    return {
        "efficient": report.efficient,
        "perron_value": report.perron.r if report.perron is not None else None,
        "perron_vector": report.w.tolist(),
        "edges": np.argwhere(report.digraph.adj) + 1,
        "scc_count": report.scc_count,
        "sources": list(report.sources),
        "sinks": list(report.sinks),
        "hamiltonian": list(report.hamiltonian) if report.hamiltonian else None,
        "certificate": (
            report.certificate.tolist() if report.certificate is not None else None
        ),
        "eps_rel": report.digraph.eps_rel,
    }


def _rows_text(a: np.ndarray, indent: int | None, pad: int) -> str:
    """`json.dumps(a.tolist(), indent=indent)` for a nonempty 2-D array of
    nonnegative ints whose line starts with `pad` spaces.

    Each entry's digits come from one label table over 0..max, NUL-padded
    to a common width.  Laid out row-major between the item and row
    separator cells, the text is the array's bytes with the NULs deleted.
    """
    comma, nl, step = ((", ", "", "") if indent is None
                       else (",", "\n" + " " * pad, " " * indent))
    nl1, nl2 = nl + step, nl + 2 * step  # the line breaks one and two levels in
    row = nl1 + "]" + comma + nl1 + "[" + nl2
    top = int(a.max())
    labels = np.arange(top + 1).astype(f"S{max(len(str(top)), len(row))}")
    cells = np.empty((a.shape[0], 2 * a.shape[1]), dtype=labels.dtype)
    cells[:, 0::2] = labels[a]
    cells[:, 1::2] = (comma + nl2).encode()
    cells[:, -1] = row.encode()
    body = cells.tobytes().translate(None, b"\0")[: -len(row)].decode()
    return "[" + nl1 + "[" + nl2 + body + nl1 + "]" + nl + "]"


def report_json(payload: dict, indent: int | None = None) -> str:
    """JSON text of a payload that may hold numpy arrays, such as `edges`.

    `json` holds the place of each nonempty 2-D array of nonnegative ints
    with a marker, and `_rows_text` writes its text at the marker's indent:
    byte for byte what `json.dumps` makes of its `tolist`, compact or
    indented.
    """
    held: list[np.ndarray] = []

    def hold(a):
        if (isinstance(a, np.ndarray) and a.ndim == 2 and a.dtype.kind in "iu"
                and a.size and a.min() >= 0):
            held.append(a)
            return _MARK
        return np.ndarray.tolist(a)

    parts = json.dumps(payload, indent=indent, default=hold).split(json.dumps(_MARK))
    if len(parts) != len(held) + 1:  # a payload string was the marker
        return json.dumps(payload, indent=indent, default=np.ndarray.tolist)
    lines = [p[p.rfind("\n") + 1:] for p in parts]  # the marker's line, so far
    text = [p + _rows_text(a, indent, len(line) - len(line.lstrip(" ")))
            for p, line, a in zip(parts, lines, held)]
    return "".join(text + parts[-1:])


def save_report(report: dict, path) -> None:
    """Write the report as one line of compact JSON (`report_json`)."""
    Path(path).write_text(report_json(report) + "\n", encoding="utf-8")
