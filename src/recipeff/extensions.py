"""Order-(n+1) extensions of reciprocal matrices.

An extension of A is a reciprocal matrix B of order n+1 whose leading n x n
principal block is A.  The central construction appends a column that makes
every row of B sum to the same value s, which forces the all-ones vector to
be the Perron eigenvector of B — and a Perron eigenvector with all
components equal is always efficient.  s is found as its offset above the
largest row sum, so each appended entry is a sum of nonnegative terms, not
a difference of nearby row sums.  Conjugating by a positive diagonal
transports that construction to an extension of the original matrix whose
Perron vector is any prescribed positive direction; both pass the one
row-sum check of `ExtensionResult`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .core import ReciprocalMatrix, _as_real, _rng, make_reciprocal, perron
from .digraph import DEFAULT_EPS_REL, DigraphStack, analyze, has_no_source_stack

ROW_SUM_RTOL = 1e-10
APPENDED_SPAN = 9.0  # appended entries sampled log-uniformly in [1/9, 9]
RANK_TIE_TOL = 1e-8


@dataclass(frozen=True)
class ExtensionResult:
    """A constant-row-sum extension: matrix, common row sum, eigen residual."""

    B: ReciprocalMatrix
    target_sum: float
    perron_check = property(lambda e: float(np.max(np.abs(e.B.a.sum(axis=1) - e.target_sum))))

    def __post_init__(self) -> None:
        budget = ROW_SUM_RTOL * self.target_sum
        if self.perron_check > budget:
            raise ValueError(f"row sums deviate from the target by {self.perron_check:.3e}, "
                             f"over the budget ROW_SUM_RTOL * target = {budget:.3e}")


def remove_index(C: ReciprocalMatrix, i: int) -> ReciprocalMatrix:
    """Remove row and column i (1-based)."""
    if C.n < 3:
        raise ValueError("need order >= 3 to remove an index")
    if not 1 <= operator.index(i) <= C.n:
        raise ValueError(f"index {i} out of range 1..{C.n}")
    sub = np.delete(np.delete(C.a, i - 1, axis=0), i - 1, axis=1)
    return make_reciprocal(sub, mode="validate")


def is_extension(B: ReciprocalMatrix, A: ReciprocalMatrix) -> bool:
    """True iff B with its last row/column removed equals A exactly."""
    if B.n != A.n + 1:
        raise ValueError(f"order mismatch: {B.n} is not {A.n} + 1")
    return bool(np.array_equal(B.a[: A.n, : A.n], A.a))


def row_sums(A: ReciprocalMatrix) -> np.ndarray:
    return A.a.sum(axis=1)


def well_behaved_type_I(A: ReciprocalMatrix) -> bool:
    """First row sum exceeds the last by more than 1."""
    r = row_sums(A)
    return bool(r[0] - r[-1] > 1.0)


def _closing_column(r: np.ndarray) -> tuple[float, np.ndarray]:
    """The common row sum s and the appended column s - r, for row sums r.

    With m = max r and d = m - r >= 0, s = m + u for the root u of
    g(u) = 1 + sum_i 1/(u + d_i) - m - u on (0, inf), and the column is
    u + d, so no entry is a difference of nearby row sums.  g is convex
    and strictly decreasing: Newton's method from u = 1/(m + 1), where
    g > 0, rises monotonically to the root, and stops at the first step
    that does not increase u.  The step is multiplied through by u^2, so
    nothing overflows when u is tiny.
    """
    m = float(np.max(r))
    d = m - r
    u = 1.0 / (m + 1.0)
    while True:
        t = u / (u + d)
        step = u * (u * (1.0 - m - u) + t.sum()) / (t @ t + u * u)
        if not u + step > u:
            return float(m + u), u + d
        u += step


def _conjugate(A: ReciprocalMatrix, d: np.ndarray) -> ReciprocalMatrix:
    """D A D^{-1} for the positive diagonal d (1-D), symmetrized to be reciprocal."""
    if d.size != A.n:
        raise ValueError(f"diagonal has {d.size} entries, expected {A.n}")
    if not np.all(np.isfinite(d) & (d > 0)):
        raise ValueError("diagonal entries must be positive and finite")
    with np.errstate(over="ignore"):
        conj = A.a * (d[:, None] / d[None, :])
    if not np.all(np.isfinite(conj) & (conj > 0)):
        raise ValueError("diagonal ratios overflow: D A D^-1 has entries that are not "
                         "positive and finite")
    return make_reciprocal(conj, mode="symmetrize")


def _append_columns(a: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """(..., n+1, n+1) extensions of the (..., n, n) matrices a by the (..., n)
    columns cols, broadcast, canonical as a is."""
    n = a.shape[-1]
    b = np.ones((*np.broadcast_shapes(a.shape[:-2], cols.shape[:-1]), n + 1, n + 1))
    b[..., :n, :n] = a
    b[..., :n, n] = cols
    b[..., n, :n] = 1.0 / cols
    return b


def _append_column(A: ReciprocalMatrix, col: np.ndarray) -> ReciprocalMatrix:
    """Extension with appended column col; leading block is A verbatim."""
    return make_reciprocal(_append_columns(A.a, col), mode="validate")


def constant_row_sum_extension(A: ReciprocalMatrix) -> ExtensionResult:
    """Extend A so that every row of the result sums to the same value s.

    With row sums r_i of A, appending b_{i,n+1} = s - r_i makes rows
    1..n sum to s; the closing reciprocal row sums to s exactly when s
    solves 1 + sum 1/(s - r_i) = s (see `_closing_column`).  The all-ones
    vector is then the Perron eigenvector of the result with eigenvalue s.
    """
    s, col = _closing_column(row_sums(A))
    return ExtensionResult(B=_append_column(A, col), target_sum=s)


def conjugated_extension(
    A_orig: ReciprocalMatrix, D: np.ndarray
) -> ReciprocalMatrix:
    """Extension of A_orig whose Perron direction is (1/D, 1).

    Conjugate by D to B' = D A D^{-1}, take the constant-row-sum extension
    of B', and conjugate back with D^{-1} (+) [1].  The leading block of the
    result is A_orig verbatim; the appended column is that of B''s
    extension divided by d_i; the Perron eigenvector is proportional to
    (1/d_1, ..., 1/d_n, 1).
    """
    d = _as_real(D).reshape(-1)
    ext = constant_row_sum_extension(_conjugate(A_orig, d))
    with np.errstate(over="ignore"):
        col = ext.B.a[:-1, -1] / d
    if not np.all(np.isfinite(col)):
        raise ValueError("diagonal ratios overflow: the appended column is not finite")
    return _append_column(A_orig, col)


@dataclass(frozen=True)
class SourceScanReport:
    samples: int
    seed: int
    failures: tuple[int, ...]  # sample indices whose digraph misbehaved


def _sampled_extensions(As: np.ndarray, samples: int, seeds) -> np.ndarray:
    """`extension_source_scan`'s samples of each base of a (B, n, n) stack, base i's
    from seeds[i], as one (B * samples, n+1, n+1) stack, base by base."""
    n, span = As.shape[-1], np.log(APPENDED_SPAN)
    cols = np.exp([_rng(seed).uniform(-span, span, (samples, n)) for seed in seeds])
    return _append_columns(As[:, None], cols.reshape(len(As), samples, n)).reshape(-1, n + 1, n + 1)


def extension_source_scan(A: ReciprocalMatrix, samples: int, seed: int,
                          eps_rel: float = DEFAULT_EPS_REL) -> SourceScanReport:
    """Random extensions of A never yield a source under the Perron vector.

    Appends log-uniform columns in [1/9, 9], sample k the k-th row of
    exp(default_rng(seed).uniform(-log 9, log 9, (samples, n))), where seed
    is an integer in [0, 2**128) as for `random_reciprocal`.  Evaluates the
    extensions as one stack, and checks both the absence of sources and the
    incoming-edge witness condition (`has_no_source_stack`).  Failures
    (expected none) are reported by sample index.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    adj = DigraphStack(_sampled_extensions(A.a[None], samples, [seed]), eps_rel=eps_rel).adj
    failures = np.flatnonzero(~has_no_source_stack(adj))
    return SourceScanReport(samples, seed, tuple(failures.tolist()))


def _dense_ranks(w: np.ndarray) -> tuple[int, ...]:
    """Descending dense ranks; values within RANK_TIE_TOL * max(w) tie."""
    gap = RANK_TIE_TOL * float(np.max(w))
    order = np.argsort(-w, kind="stable")
    s = w[order]
    ranks = np.empty(w.size, dtype=int)
    ranks[order] = 1 + np.concatenate(([0], np.cumsum(s[:-1] - s[1:] > gap)))
    return tuple(int(v) for v in ranks)


def _ranks_kept(A: ReciprocalMatrix, B: ReciprocalMatrix, wA: np.ndarray, wB: np.ndarray):
    """Does extending A to B keep the ranking of the first n Perron weights?

    Returns (preserved, ranks of wA, ranks of wB[:n]) for the Perron vectors
    wA of A and wB of B; ranks are dense and descending, ties within RANK_TIE_TOL.
    """
    if not is_extension(B, A):
        raise ValueError("B is not an extension of A")
    ra = _dense_ranks(wA)
    rb = _dense_ranks(wB[: A.n])
    return ra == rb, ra, rb


def extension_report(
    A: ReciprocalMatrix,
    ext: ReciprocalMatrix,
    target_sum: float | None,
    eps_rel: float = DEFAULT_EPS_REL,
) -> dict:
    """JSON-ready summary of one extension of A."""
    rep = analyze(ext, eps_rel=eps_rel)
    preserved, _, _ = _ranks_kept(A, ext, perron(A).w, rep.w)
    return {
        "base_order": A.n,
        "target_sum": target_sum,
        "appended_column": [float(v) for v in ext.a[: A.n, A.n]],
        "perron_vector": [float(v) for v in rep.w],
        "efficient": rep.efficient,
        "order_preserved": preserved,
    }
