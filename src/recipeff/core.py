"""Reciprocal (pairwise-comparison) matrices and their Perron eigenpairs.

A reciprocal matrix is a positive square matrix with unit diagonal and
a_ij * a_ji = 1.  It is consistent when a_ij * a_jk = a_ik for all triples,
equivalently when it has the form (v_i / v_j) for a positive vector v.

Matrices are canonicalized from the upper triangle, which one boolean mask
picks (a_ji stored as 1/a_ij), so ratio tests against a_ij and a_ji can
never disagree by more than a rounding ulp.  Perron pairs are computed by
power iteration, from a start found by repeated squaring at small orders,
and normalized to have first component 1.  The solve runs on (B, n, n)
stacks (`perron_stack`); `perron` is its one-matrix case.

Seeded random matrices come from one numpy generator per seed,
`np.random.default_rng(seed)`: a stack of `count` matrices reads its upper
triangles, row-major, off one stream (`random_reciprocal_stack`), so row k
is the same for every count > k, and `random_reciprocal` is its first row.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

RECIPROCITY_RTOL = 1e-12
PERRON_TOL = 1e-14
PERRON_MAX_ITER = 100_000
PARETO_MARGIN = 1e-12  # pareto_dominates ignores deviation changes up to this size
# orders up to this start the power iteration from a squared start; larger ones
# keep the all-ones start, bit for bit.  A squaring costs n^3 where a step costs
# n^2: one matrix at spread 1e2 solved faster squared up to n = 32 and slower at
# n = 40 (2 cores, Python 3.11.7, numpy 2.4.6), but no workload runs orders 17
# to 49, so the cut at 16 is not measured there
PERRON_SQUARE_MAX_N = 16
# a squared start has settled when it moves by at most this times its
# largest entry between two squarings
PERRON_SQUARE_TOL = 1e-15
# stacks of at least this many rows sum rows by column adds (`_row_sums`): at
# n <= 8 they beat `np.add.reduce` from 48-64 rows, at n = 9..16 from 96-160,
# and were 4-10x slower at one row (2 cores, Python 3.11.7, numpy 2.4.6)
PERRON_COLUMN_SUM_MIN_ROWS = 128
# every PERRON_CHECK_EVERY power steps a row also stops when its Hilbert gap
# g = log(max(Av/v) / min(Av/v)) is below PERRON_HILBERT_TOL and no lower
# than at its earlier checkpoints: rounding, not convergence, then moves it
PERRON_CHECK_EVERY = 16
PERRON_HILBERT_TOL = 1e-13


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


def _as_real(raw) -> np.ndarray:
    """`raw` as a float array; a complex one raises rather than lose its imaginary parts."""
    if (a := np.asarray(raw)).dtype.kind == "c":
        raise ValueError("entries must be real, not complex")
    return a.astype(float, copy=False)


def _upper(n: int) -> np.ndarray:
    """(n, n) mask of the strict upper triangle: row-major as an index, as `np.triu_indices`."""
    return np.arange(n)[:, None] < np.arange(n)


def _canonicalize(a: np.ndarray) -> np.ndarray:
    """Rebuild from the upper triangle: diagonal 1, lower entries 1/upper.

    Works on (..., n, n) stacks.  Each entry off the diagonal is the upper
    entry or its reciprocal, picked by one mask; the result is C-ordered, so
    the diagonal is every (n + 1)-th entry of its flat view.
    """
    n = a.shape[-1]
    out = np.ascontiguousarray(np.where(_upper(n), a, 1.0 / a.swapaxes(-1, -2)))
    out.reshape(-1, n * n)[:, :: n + 1] = 1.0
    return out


def make_reciprocal(raw, mode: str = "validate") -> ReciprocalMatrix:
    """Build a ReciprocalMatrix from a raw positive square array.

    mode="validate" rejects unit-diagonal or reciprocity violations
    (|a_ij * a_ji - 1| > 1e-12); mode="symmetrize" overwrites the diagonal
    with 1 and the lower triangle with reciprocals of the upper.  Both
    modes store the canonical form, so a_ji == 1/a_ij exactly afterwards,
    and reject an upper entry whose reciprocal overflows (such as 1e-320).
    """
    a = _as_real(raw)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] < 2:
        raise ValueError("matrix order must be at least 2")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    if not np.all(a > 0):
        i, j = np.argwhere(~(a > 0))[0]
        raise ValueError(f"non-positive entry at row {i + 1}, column {j + 1}")
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
                f"a_ij*a_ji = {float(prod[i, j])!r}"
            )
    elif mode != "symmetrize":
        raise ValueError(f"unknown mode {mode!r}")
    with np.errstate(over="ignore"):
        out = _canonicalize(a)
    if not np.all(np.isfinite(out)):
        i, j = np.argwhere(~np.isfinite(out.T))[0]
        raise ValueError(f"entry at row {i + 1}, column {j + 1} must have a finite "
                         f"reciprocal, got {float(a[i, j])!r}")
    return ReciprocalMatrix(out)


@dataclass(frozen=True, eq=False)
class PerronStack:
    """Perron pairs of a (B, n, n) stack: row i of each array is matrix i's.
    `[i]` is row i's pair, on a copy of its w (a kept pair keeps no stack alive)."""

    w: np.ndarray
    r: np.ndarray
    residual: np.ndarray
    iterations: np.ndarray

    def __getitem__(self, i: int) -> PerronPair:
        return PerronPair(float(self.r[i]), self.w[i].copy(), float(self.residual[i]),
                          int(self.iterations[i]))


class PerronConvergenceError(RuntimeError):
    """The power iteration reached its iteration cap without stopping, or
    stopped at a w or r that is not positive and finite."""


def _not_converged(a: np.ndarray, v: np.ndarray, i: int, max_iter: int):
    av = a @ v  # both callers run under perron_stack's errstate
    residual = np.max(np.abs(av - av[0] * v))
    return PerronConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"at row {i} (residual {residual:.3e})"
    )


def _row_sums(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`np.add.reduce(m, 2, out=out)` of a (B, n, n) stack, bit for bit.  From
    PERRON_COLUMN_SUM_MIN_ROWS rows on, up to n = 128, it adds whole columns in numpy's
    order: a chain below n = 8, else 8 partial sums over the whole blocks of 8, their tree
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), then the rest in order."""
    if len(m) < PERRON_COLUMN_SUM_MIN_ROWS or m.shape[-1] > 128:  # numpy splits longer rows
        return np.add.reduce(m, 2, out=out)
    c, n = m.transpose(2, 0, 1), m.shape[-1]  # c[j] is column j of every matrix
    if n < 8:
        s, rest = c[0] + c[1], c[2:]
    else:
        r = sum((c[j:j + 8] for j in range(8, n - n % 8, 8)), c[:8])
        while len(r) > 1:
            r = r[0::2] + r[1::2]
        s, rest = r[0], c[n - n % 8:]
    for col in rest:
        s += col
    out[...] = s
    return out


def _squared_start(a: np.ndarray, max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Start vectors of a (B, n, n) stack from repeated squaring, as (n, B)
    columns, and the number of squarings each row took.

    Each row squares M <- M @ M from M = A and divides M by its largest row
    sum, so no entry exceeds 1, until the row sums of M, scaled to first
    component 1, move by at most PERRON_SQUARE_TOL times their largest
    entry.  The row sums are `add.reduce`'s bit for bit (`_row_sums`: tall
    stacks add whole columns in its order), in an (n + 1, B) buffer whose row
    n is their maximum: one division by the first sum scales all (monotone, so
    row n stays the largest bit for bit and moves no more than the others),
    and the settle test runs along the batch axis.  Settled rows are written
    out, and compacted away while others move, so a row's start never
    depends on the other rows; the loop ends when its last rows settle.  A
    row whose row sums stop being finite and positive starts from all-ones;
    `perron_stack` runs this under the errstate that silences their overflow.
    """
    B, n = a.shape[0], a.shape[-1]
    start = np.empty((n, B))
    squarings = np.empty(B, dtype=int)
    rows, m, k, u = np.arange(B), a, 0, np.empty((n + 1, B))
    ut, top, u0 = u[:n].T, u[n], u[0]
    np.maximum.reduce(_row_sums(m, ut), 1, out=top)
    s = u / u0
    while rows.size:
        if k == max_iter:
            raise _not_converged(a[rows[0]], s[:n, 0], int(rows[0]), max_iter)
        m = m @ m
        np.maximum.reduce(_row_sums(m, ut), 1, out=top)
        m /= top[:, None, None]
        t = u / u0
        k += 1
        # NaN never moves by less than the bound: it ends the row too
        moving = np.maximum.reduce(np.abs(t - s)) > PERRON_SQUARE_TOL * t[n]
        going = np.count_nonzero(moving)
        if going < rows.size:
            out = ~moving
            start[:, rows[out]], squarings[rows[out]] = t[:n, out], k
            if not going:
                break
            rows, m, t, u = rows[moving], m[moving], t.compress(moving, axis=1), u[:, :going]
            ut, top, u0 = u[:n].T, u[n], u[0]
        s = t
    start[:, ~np.logical_and.reduce(np.isfinite(start) & (start > 0))] = 1.0
    return start, squarings


def perron_stack(a: np.ndarray, max_iter: int = PERRON_MAX_ITER) -> PerronStack:
    """Perron eigenpairs of a (B, n, n) stack by power iteration.

    Orders up to PERRON_SQUARE_MAX_N start from a squared start (see
    `_squared_start`); larger orders start from all-ones.  From there each
    pass takes one step v <- A v, renormalized to v[0] == 1, on every live
    row; a row stops at the first step whose iterate differs from the last
    by less than PERRON_TOL in max norm, or is NaN (a row sum overflowed),
    and is written out: compacted away while other rows move, or the loop
    ends with it.  Where w has large entries, rounding alone can keep that
    difference above PERRON_TOL; so at every PERRON_CHECK_EVERY-th step a
    row also stops when its Hilbert gap (see PERRON_HILBERT_TOL) has stopped
    falling.  r is (A w)[0] at that iterate.  Two (n, B) buffers take the
    steps in turn, so tests over a row run along the batch axis.  A row's
    `iterations` counts its squarings plus its power steps, capped by
    `max_iter`.  PerronConvergenceError names the row that reaches the cap
    (the one with the least budget left, the first on ties), or that stops
    at a w or r that is not positive and finite, as when an entry product
    underflows or a row sum overflows.  Every row equals its own one-matrix
    solve bit for bit.  max_iter must be a nonnegative integer; complex
    entries raise ValueError.
    """
    if operator.index(max_iter) < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    a = np.ascontiguousarray(_as_real(a))
    B, n = a.shape[0], a.shape[-1]
    w = np.empty((B, n))
    iterations = np.empty(B, dtype=int)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if n <= PERRON_SQUARE_MAX_N:
            v, squarings = _squared_start(a, max_iter)
        else:
            v, squarings = np.ones((n, B)), np.zeros(B, dtype=int)
        rows, live, left, u = np.arange(B), a, max_iter - squarings, np.empty((n, B))
        best = np.full(B, np.inf)  # each row's least Hilbert gap at a checkpoint
        ub, vb, k, cap = u.T[..., None], v.T[..., None], 0, int(left.min(initial=max_iter))
        while rows.size:
            if k == cap:
                j = int(left.argmin())
                raise _not_converged(a[rows[j]], v[:, j], int(rows[j]), max_iter)
            np.matmul(live, vb, out=ub)
            u /= u[0]
            k += 1
            # written as >= so that a NaN iterate stops too
            moving = np.maximum.reduce(np.abs(u - v)) >= PERRON_TOL
            if k % PERRON_CHECK_EVERY == 0:
                q = u / v
                g = np.log(np.maximum.reduce(q) / np.minimum.reduce(q))
                moving &= ~((g < PERRON_HILBERT_TOL) & (g >= best))
                best = np.fmin(best, g)
            going = np.count_nonzero(moving)
            if going < rows.size:
                stop = ~moving
                w[rows[stop]], iterations[rows[stop]] = u[:, stop].T, squarings[rows[stop]] + k
                if not going:
                    break
                rows, live, left, best = rows[moving], live[moving], left[moving], best[moving]
                u, v = u.compress(moving, axis=1), v[:, :rows.size]
                ub, vb, cap = u.T[..., None], v.T[..., None], int(left.min(initial=max_iter))
            u, ub, v, vb = v, vb, u, ub
        aw = np.matmul(a, w[..., None], out=np.empty((n, B)).T[..., None])[..., 0].T
    r = aw[0]
    ok = np.logical_and.reduce((w.T > 0) & np.isfinite(aw))  # so w is finite and r >= w[0] = 1
    if not ok.all():
        raise PerronConvergenceError("power iteration stopped at a w or r that is not "
                                     f"positive and finite at row {int(ok.argmin())}")
    residual = np.maximum.reduce(np.abs(aw - r * w.T))
    return PerronStack(w, r, residual, iterations)


def perron(A: ReciprocalMatrix, max_iter: int = PERRON_MAX_ITER) -> PerronPair:
    """Perron eigenpair of A: the one-matrix case of `perron_stack`."""
    return perron_stack(A.a[None], max_iter)[0]


def _require_finite_ratios(w: np.ndarray) -> None:
    """Reject vectors (along the last axis) not positive and finite, or whose
    max/min overflows.  All pass when the whole stack's max/min is finite;
    else each is tested as min/max >= 1/DBL_MAX, which cannot overflow."""
    lo, hi = float(w.min(initial=np.inf)), float(w.max(initial=0.0))
    if lo > 0 and hi / lo < np.inf:
        return
    lo, hi = w.min(axis=-1), w.max(axis=-1)
    if not ((lo > 0).all() and (lo / hi >= 1 / np.finfo(float).max).all()):
        raise ValueError("vector entries must be positive and finite, "
                         "with a finite ratio max(w)/min(w)")


def pareto_dominates(A: ReciprocalMatrix, w, w2) -> bool:
    """True iff w2 fits A at least as well as w entrywise, strictly somewhere.

    Fit is the absolute deviation |a_ij - u_i/u_j|; domination requires no
    deviation to grow by more than PARETO_MARGIN and at least one to shrink
    by more than PARETO_MARGIN.  The slack on the growth side absorbs the
    ulp-level ratio drift introduced when a block of w2 is a rescaled copy
    of the corresponding block of w.  A vector that is not positive and
    finite, or whose ratio max/min overflows, raises ValueError.
    """
    w, w2 = _as_real(w), _as_real(w2)
    if w.shape != (A.n,) or w2.shape != (A.n,):
        raise ValueError("vector length mismatch")
    _require_finite_ratios(np.array([w, w2]))
    return bool(pareto_dominates_stack(A.a[None], w[None], w2[None])[0])


def pareto_dominates_stack(a: np.ndarray, w: np.ndarray, w2: np.ndarray) -> np.ndarray:
    """`pareto_dominates` of each row of a (B, n, n) stack and (B, n) vectors, unchecked,
    as (B,) flags.  A diagonal deviation is |a_ii - 1| for both, so it needs no mask."""
    dev = np.abs(a - w[:, :, None] / w[:, None, :])
    dev2 = np.abs(a - w2[:, :, None] / w2[:, None, :])
    return (~(dev2 > dev + PARETO_MARGIN).any(axis=(1, 2))
            & (dev - dev2 > PARETO_MARGIN).any(axis=(1, 2)))


def random_reciprocal(n: int, seed: int, log_scale: float = np.log(9.0)) -> ReciprocalMatrix:
    """Seeded random matrix: upper entries exp(U[-log_scale, log_scale]); the
    first row of `random_reciprocal_stack`."""
    return ReciprocalMatrix(random_reciprocal_stack(n, 1, seed, log_scale)[0])


def _rng(seed: int) -> np.random.Generator:
    """`np.random.default_rng(seed)` for a seed that is an integer in [0, 2**128)."""
    try:
        seed = operator.index(seed)
    except TypeError as e:
        raise TypeError(f"seeds must be integers: {e}") from None
    if not 0 <= seed < 2**128:
        raise ValueError(f"seed must be in [0, 2**128), got {seed}")
    return np.random.default_rng(seed)


def random_reciprocal_stack(n: int, count: int, seed: int,
                            log_scale: float = np.log(9.0)) -> np.ndarray:
    """(count, n, n) stack of seeded random matrices, drawn from one stream.

    Its upper triangles, row by row, are exp(default_rng(seed).uniform(
    -log_scale, log_scale, (count, n(n-1)/2))) (`_rng`), so row k is the
    same for every count > k.  count must be a nonnegative integer, and
    log_scale and twice it finite and nonnegative; an entry or reciprocal
    that is not finite raises ValueError naming the row.
    """
    if operator.index(n) < 2:
        raise ValueError("n must be at least 2")
    if operator.index(count) < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    high = float(log_scale)
    if not 0 <= 2 * high < np.inf:  # as Generator.uniform needs its range
        raise ValueError(f"log_scale must be finite and nonnegative, and so must twice it; "
                         f"got {log_scale!r}")
    u = _rng(seed).uniform(-high, high, (count, n * (n - 1) // 2))
    a = np.ones((count, n, n))
    with np.errstate(over="ignore", divide="ignore"):
        a[:, _upper(n)] = np.exp(u)
        out = _canonicalize(a)
    ok = np.isfinite(out).all(axis=(1, 2))
    if not ok.all():
        raise ValueError(f"log_scale {log_scale!r} too large: entries of row {int(ok.argmin())} "
                         f"of seed {seed}'s stack or their reciprocals overflow")
    return out
