"""Reciprocal (pairwise-comparison) matrices and their Perron eigenpairs.

A reciprocal matrix is a positive square matrix with unit diagonal and
a_ij * a_ji = 1.  It is consistent when a_ij * a_jk = a_ik for all triples,
equivalently when it has the form (v_i / v_j) for a positive vector v.

Matrices are canonicalized from the upper triangle (a_ji stored as 1/a_ij),
so ratio tests against a_ij and a_ji can never disagree by more than a
rounding ulp.  Perron pairs are computed by power iteration and normalized
to have first component 1.  The power iteration runs on (B, n, n) stacks
(`perron_stack`); `perron` is its one-matrix case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

RECIPROCITY_RTOL = 1e-12
PERRON_TOL = 1e-14
PERRON_MAX_ITER = 100_000
# power steps between two stop tests; each test reads every recorded step,
# so a row stops at the same step as with a test after every step
PERRON_STOP_EVERY = 8


@dataclass(frozen=True, eq=False)
class ReciprocalMatrix:
    """Validated positive matrix with unit diagonal and a_ji == 1/a_ij."""

    a: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def __getitem__(self, ij: tuple[int, int]) -> float:
        """Entry access with 1-based indices, matching the usual notation."""
        i, j = ij
        return float(self.a[i - 1, j - 1])


@dataclass(frozen=True, eq=False)
class PerronPair:
    """Perron eigenvalue r and eigenvector w with w[0] == 1."""

    r: float
    w: np.ndarray
    residual: float
    iterations: int


def _as_positive_square(raw) -> np.ndarray:
    a = np.array(raw, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("matrix order must be at least 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.all(a > 0):
        i, j = np.argwhere(~(a > 0))[0]
        raise ValueError(f"non-positive entry at row {i + 1}, column {j + 1}")
    return a


@cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of order n, read-only."""
    iu, ju = np.triu_indices(n, k=1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _canonicalize(a: np.ndarray) -> np.ndarray:
    """Rebuild from the upper triangle: diagonal 1, lower entries 1/upper.

    Works on (..., n, n) stacks.  Off the diagonal each entry is one term
    plus exact zeros, so it is the upper entry or its reciprocal bit for bit.
    """
    n = a.shape[-1]
    out = np.triu(a, 1)
    out += np.triu(1.0 / a, 1).swapaxes(-1, -2)
    out[..., range(n), range(n)] = 1.0
    return out


def make_reciprocal(raw, mode: str = "validate") -> ReciprocalMatrix:
    """Build a ReciprocalMatrix from a raw positive square array.

    mode="validate" rejects unit-diagonal or reciprocity violations
    (|a_ij * a_ji - 1| > 1e-12); mode="symmetrize" overwrites the diagonal
    with 1 and the lower triangle with reciprocals of the upper.  Both
    modes store the canonical form, so a_ji == 1/a_ij exactly afterwards.
    """
    a = _as_positive_square(raw)
    if mode == "validate":
        if not np.all(np.diag(a) == 1.0):
            i = int(np.argwhere(np.diag(a) != 1.0)[0][0])
            raise ValueError(f"diagonal entry ({i + 1},{i + 1}) must be 1")
        prod = a * a.T
        bad = np.abs(prod - 1.0) > RECIPROCITY_RTOL
        if np.any(bad):
            i, j = np.argwhere(bad)[0]
            raise ValueError(
                f"reciprocity violation at ({i + 1},{j + 1}): "
                f"a_ij*a_ji = {prod[i, j]!r}"
            )
    elif mode != "symmetrize":
        raise ValueError(f"unknown mode {mode!r}")
    return ReciprocalMatrix(_canonicalize(a))


def consistent_from_vector(v) -> ReciprocalMatrix:
    """The consistent matrix (v_i / v_j)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or len(v) < 2:
        raise ValueError("v must be a vector of length >= 2")
    if not np.all(v > 0) or not np.all(np.isfinite(v)):
        raise ValueError("v must be strictly positive and finite")
    return make_reciprocal(np.outer(v, 1.0 / v), mode="symmetrize")


@dataclass(frozen=True, eq=False)
class PerronStack:
    """Perron pairs of a (B, n, n) stack: row i of each array is matrix i's."""

    w: np.ndarray
    r: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray

    def __getitem__(self, i: int) -> PerronPair:
        return PerronPair(float(self.r[i]), self.w[i], float(self.residual[i]),
                          int(self.iterations[i]))


def perron_stack(
    a: np.ndarray,
    tol: float = PERRON_TOL,
    max_iter: int = PERRON_MAX_ITER,
) -> PerronStack:
    """Perron eigenpairs of a (B, n, n) stack by power iteration from all-ones.

    Each row iterates v <- A v, renormalized to v[0] == 1, and stops at the
    first step whose iterate differs from the previous one by less than
    `tol` in max norm; r is (A w)[0] at that iterate.  The iterates are
    recorded and tested every PERRON_STOP_EVERY steps (never past
    `max_iter`), and rows that stopped are written out and dropped from
    the stack.  Every row equals its own one-matrix solve bit for bit.
    """
    a = np.ascontiguousarray(a, dtype=float)
    B, n = a.shape[0], a.shape[-1]
    w = np.empty((B, n))
    iterations = np.empty(B, dtype=int)
    rows, live = np.arange(B), a
    steps = np.empty((PERRON_STOP_EVERY + 1, B, n, 1))  # steps[0]: last tested
    steps[0] = 1.0
    done, views = 0, None
    while rows.size:
        todo = min(PERRON_STOP_EVERY, max_iter - done)
        if todo == 0:
            i, last = int(rows[0]), steps[0, 0, :, 0]
            av = a[i] @ last
            raise RuntimeError(
                f"power iteration did not converge in {max_iter} iterations "
                f"at row {i} (residual {np.max(np.abs(av - av[0] * last)):.3e})"
            )
        if views is None:  # made once per stack shape: the step loop is all ufuncs
            views = list(steps)
            heads = [v[:, :1] for v in views]
        for k in range(1, todo + 1):
            np.matmul(live, views[k - 1], out=views[k])
            views[k] /= heads[k]
        hit = np.abs(steps[1 : todo + 1] - steps[:todo]).max(axis=2)[..., 0] < tol
        stop = hit.any(axis=0)
        if stop.any():
            first = hit.argmax(axis=0)[stop]
            w[rows[stop]] = steps[first + 1, np.flatnonzero(stop), :, 0]
            iterations[rows[stop]] = done + first + 1
            rows, live, steps = rows[~stop], live[~stop], steps[:, ~stop]
            views = None
        steps[0] = steps[todo]
        done += todo
    aw = np.matmul(a, w[..., None])[..., 0]
    r = aw[:, 0]
    residual = np.max(np.abs(aw - r[:, None] * w), axis=1)
    return PerronStack(w, r, residual, iterations)


def perron(
    A: ReciprocalMatrix,
    tol: float = PERRON_TOL,
    max_iter: int = PERRON_MAX_ITER,
) -> PerronPair:
    """Perron eigenpair of A: the one-matrix case of `perron_stack`."""
    return perron_stack(A.a[None], tol, max_iter)[0]


def pareto_dominates(
    A: ReciprocalMatrix, w, w2, strict_margin: float = 1e-12
) -> bool:
    """True iff w2 fits A at least as well as w entrywise, strictly somewhere.

    Fit is the absolute deviation |a_ij - u_i/u_j|; domination requires no
    deviation to grow by more than strict_margin and at least one to shrink
    by more than strict_margin.  The slack on the growth side absorbs the
    ulp-level ratio drift introduced when a block of w2 is a rescaled copy
    of the corresponding block of w.
    """
    w = np.asarray(w, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w.shape != (A.n,) or w2.shape != (A.n,):
        raise ValueError("vector length mismatch")
    dev = np.abs(A.a - w[:, None] / w[None, :])
    dev2 = np.abs(A.a - w2[:, None] / w2[None, :])
    off = ~np.eye(A.n, dtype=bool)
    if np.any(dev2[off] > dev[off] + strict_margin):
        return False
    return bool(np.any(dev[off] - dev2[off] > strict_margin))


def random_reciprocal(n: int, seed: int, log_scale: float = np.log(9.0)) -> ReciprocalMatrix:
    """Seeded random matrix: upper entries exp(U[-log_scale, log_scale])."""
    return ReciprocalMatrix(random_reciprocal_stack(n, [seed], log_scale)[0])


def random_reciprocal_stack(n: int, seeds, log_scale: float = np.log(9.0)) -> np.ndarray:
    """(len(seeds), n, n) stack; row k is random_reciprocal(n, seeds[k], log_scale).a."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if log_scale < 0:
        raise ValueError("log_scale must be nonnegative")
    a = np.ones((len(seeds), n, n))
    for row, seed in zip(a, seeds):
        rng = np.random.default_rng(seed)
        row[_upper(n)] = np.exp(rng.uniform(-log_scale, log_scale, size=n * (n - 1) // 2))
    if not np.all(np.isfinite(a) & (a > 0)):
        raise ValueError("log_scale too large: entries overflow")
    return _canonicalize(a)
