"""Builders and writers that only the tests need."""

from pathlib import Path

import numpy as np

from recipeff.core import ReciprocalMatrix, make_reciprocal

FLOAT_FMT = "%.17g"  # 17 significant digits: a write/read round trip is bit-exact


def consistent_from_vector(v) -> ReciprocalMatrix:
    """The consistent matrix (v_i / v_j)."""
    v = np.asarray(v, dtype=float)
    return make_reciprocal(np.outer(v, 1.0 / v), mode="symmetrize")


def save_matrix(A: ReciprocalMatrix, path) -> None:
    lines = [",".join(FLOAT_FMT % v for v in row) for row in A.a]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_vector(w, path) -> None:
    w = np.asarray(w, dtype=float)
    Path(path).write_text(",".join(FLOAT_FMT % v for v in w) + "\n", encoding="utf-8")
