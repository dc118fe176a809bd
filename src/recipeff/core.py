"""Reciprocal (pairwise-comparison) matrices and their Perron eigenpairs.

A reciprocal matrix is a positive square matrix with unit diagonal and
a_ij * a_ji = 1.  It is consistent when a_ij * a_jk = a_ik for all triples,
equivalently when it has the form (v_i / v_j) for a positive vector v.

Matrices are canonicalized from the upper triangle (a_ji stored as 1/a_ij),
so ratio tests against a_ij and a_ji can never disagree by more than a
rounding ulp.  Perron pairs are computed by power iteration, from a start
found by repeated squaring at small orders, and normalized to have first
component 1.  The solve runs on (B, n, n) stacks (`perron_stack`); `perron`
is its one-matrix case.
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
# orders up to this start the power iteration from a squared start.  A
# squaring costs n^3 where a step costs n^2: one matrix at spread 1e2 solved
# faster from a squared start up to n = 32 and slower at n = 40 (2 cores,
# Python 3.11.7, numpy 2.4.6)
PERRON_SQUARE_MAX_N = 16
# a squared start has settled when it moves by at most this times its
# largest entry between two squarings
PERRON_SQUARE_TOL = 1e-15


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


class PerronConvergenceError(RuntimeError):
    """The power iteration reached its iteration cap without stopping."""


def _not_converged(a: np.ndarray, v: np.ndarray, i: int, max_iter: int):
    with np.errstate(over="ignore", invalid="ignore"):
        av = a @ v
        residual = np.max(np.abs(av - av[0] * v))
    return PerronConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"at row {i} (residual {residual:.3e})"
    )


def _squared_start(a: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Start vectors of a (B, n, n) stack from repeated squaring, and the
    number of squarings each row took.

    Each row squares M <- M @ M from M = A and divides M by its largest row
    sum, so no entry exceeds 1, until the row sums of M, scaled to first
    component 1, move by at most PERRON_SQUARE_TOL times their largest
    entry.  Settled rows are dropped from the stack, so a row's start never
    depends on the other rows.  A row whose row sums stop being finite and
    positive starts from all-ones.
    """
    B, n = a.shape[0], a.shape[-1]
    start = np.empty((B, n))
    squarings = np.empty(B, dtype=int)
    rows, m, k = np.arange(B), a, 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        u = m.sum(axis=2)
        s = u / u[:, :1]
        while rows.size:
            if k == max_iter:
                raise _not_converged(a[rows[0]], s[0], int(rows[0]), max_iter)
            m = m @ m
            u = m.sum(axis=2)
            top = u.max(axis=1)
            m /= top[:, None, None]
            t = u / u[:, :1]
            k += 1
            # NaN never moves by less than the bound: it ends the row too
            out = ~(np.abs(t - s).max(axis=1) > PERRON_SQUARE_TOL * (top / u[:, 0]))
            if out.any():
                start[rows[out]] = t[out]
                squarings[rows[out]] = k
                rows, m, t = rows[~out], m[~out], t[~out]
            s = t
    start[~np.all(np.isfinite(start) & (start > 0), axis=1)] = 1.0
    return start, squarings


def perron_stack(
    a: np.ndarray,
    tol: float = PERRON_TOL,
    max_iter: int = PERRON_MAX_ITER,
) -> PerronStack:
    """Perron eigenpairs of a (B, n, n) stack by power iteration.

    Orders up to PERRON_SQUARE_MAX_N start from a squared start (see
    `_squared_start`); larger orders start from all-ones.  From there each
    row iterates v <- A v, renormalized to v[0] == 1, and stops at the
    first step whose iterate differs from the previous one by less than
    `tol` in max norm; r is (A w)[0] at that iterate.  A row's `iterations`
    counts its squarings plus its power steps, and `max_iter` caps that
    total: a row that reaches it raises PerronConvergenceError naming the
    row.  The iterates are recorded and tested every PERRON_STOP_EVERY
    steps (never past a row's cap), and rows that stopped are written out
    and dropped from the stack.  Every row equals its own one-matrix solve
    bit for bit.
    """
    a = np.ascontiguousarray(a, dtype=float)
    B, n = a.shape[0], a.shape[-1]
    if n <= PERRON_SQUARE_MAX_N:
        start, squarings = _squared_start(a, max_iter)
    else:
        start, squarings = np.ones((B, n)), np.zeros(B, dtype=int)
    w = np.empty((B, n))
    iterations = np.empty(B, dtype=int)
    rows, live, left = np.arange(B), a, max_iter - squarings
    steps = np.empty((PERRON_STOP_EVERY + 1, B, n, 1))  # steps[0]: last tested
    steps[0, :, :, 0] = start
    done, views = 0, None
    while rows.size:
        todo = min(PERRON_STOP_EVERY, int(left.min()) - done)
        if todo == 0:
            j = int(left.argmin())
            raise _not_converged(a[rows[j]], steps[0, j, :, 0], int(rows[j]), max_iter)
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
            iterations[rows[stop]] = squarings[rows[stop]] + done + first + 1
            rows, live, steps, left = rows[~stop], live[~stop], steps[:, ~stop], left[~stop]
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
