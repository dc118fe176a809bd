import itertools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import recipeff.core as core
from helpers import (
    canonicalize_reference,
    consistent_from_vector,
    random_reciprocal_stack_reference,
)
from recipeff.core import (
    PerronConvergenceError,
    ReciprocalMatrix,
    make_reciprocal,
    pareto_dominates,
    perron,
    perron_stack,
    random_reciprocal,
    random_reciprocal_stack,
)
from recipeff.digraph import DigraphStack, analyze, build_digraph
from recipeff.extensions import conjugated_extension
from recipeff.harness import _GRID
from recipeff.zfamily import ZStack, z_stack

positive_entry = st.floats(min_value=1.0 / 9.0, max_value=9.0)


def is_consistent(A, tol=1e-12):
    """True iff a_ij * a_jk = a_ik for all triples, to relative tol."""
    a = A.a
    # dev[i,k,j] = a_ij * a_jk - a_ik, all triples at once
    dev = np.einsum("ij,jk->ikj", a, a) - a[:, :, None]
    return bool(np.all(np.abs(dev) <= tol * a[:, :, None]))


def test_make_reciprocal_validate_accepts_exact():
    a = np.array([[1.0, 2.0, 4.0], [0.5, 1.0, 2.0], [0.25, 0.5, 1.0]])
    A = make_reciprocal(a)
    assert isinstance(A, ReciprocalMatrix)
    assert A.n == 3
    assert A[1, 2] == 2.0 and A[2, 1] == 0.5


def test_make_reciprocal_rejects_bad_diagonal():
    a = np.array([[1.0, 2.0], [0.5, 1.1]])
    with pytest.raises(ValueError, match=r"\(2,2\)"):
        make_reciprocal(a)


def test_make_reciprocal_rejects_reciprocity_violation():
    a = np.array([[1.0, 2.0], [0.6, 1.0]])
    with pytest.raises(ValueError, match=r"reciprocity violation at \(1,2\)"):
        make_reciprocal(a)


def test_make_reciprocal_rejects_nonpositive_with_location():
    a = np.array([[1.0, -2.0], [0.5, 1.0]])
    with pytest.raises(ValueError, match="row 1, column 2"):
        make_reciprocal(a)


def test_make_reciprocal_rejects_nonsquare_and_tiny():
    with pytest.raises(ValueError, match="square"):
        make_reciprocal(np.ones((2, 3)))
    with pytest.raises(ValueError, match="at least 2"):
        make_reciprocal(np.ones((1, 1)))
    with pytest.raises(ValueError, match="unknown mode"):
        make_reciprocal(np.ones((2, 2)), mode="repair")


def test_make_reciprocal_rejects_an_entry_whose_reciprocal_overflows():
    a = np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 1e-320], [1 / 3, 1.0, 1.0]])
    with pytest.raises(ValueError, match=r"^entry at row 2, column 3 must have a finite "
                                         r"reciprocal, got 1e-320$"):
        make_reciprocal(a, mode="symmetrize")
    # symmetrize overwrites the lower triangle, so a tiny entry there is harmless
    A = make_reciprocal(a.T, mode="symmetrize")
    assert A.a[2, 1] == 1.0 and A.a[1, 2] == 1.0


def test_symmetrize_overwrites_lower_triangle():
    a = np.array([[1.0, 3.0], [7.0, 5.0]])  # junk diagonal and lower entry
    A = make_reciprocal(a, mode="symmetrize")
    assert A.a[0, 0] == 1.0 and A.a[1, 1] == 1.0
    assert A.a[0, 1] == 3.0
    assert A.a[1, 0] == 1.0 / 3.0


def test_canonicalize_is_the_triu_reference_bit_for_bit():
    rng = np.random.default_rng(43)
    for n in range(2, 41):
        for shape in ((n, n), (3, n, n), (0, n, n)):
            a = np.exp(rng.uniform(-40.0, 40.0, shape))
            a[rng.random(shape) < 0.05] = 1e-320  # a reciprocal that overflows
            for x in (a, np.asfortranarray(a), a.swapaxes(-1, -2)):
                with np.errstate(over="ignore"):
                    got = core._canonicalize(x)
                    want = canonicalize_reference(x)
                assert got.shape == shape and got.tobytes() == want.tobytes(), (n, shape)
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        a = random_reciprocal(n, seed=n).a.copy()
        a[i, j] = 1e-320
        with pytest.raises(ValueError, match=rf"^entry at row {i + 1}, column {j + 1} must "
                                             r"have a finite reciprocal, got 1e-320$"):
            make_reciprocal(a, mode="symmetrize")


def test_random_reciprocal_stack_is_the_triu_reference_bit_for_bit():
    for n in range(2, 41):
        for count in range(201) if n == 5 else (0, 1, 2, 200):
            assert random_reciprocal_stack(n, count, 4300 + n).tobytes() == (
                random_reciprocal_stack_reference(n, count, 4300 + n).tobytes()), (n, count)
    for n, count, seed in ((3, 4, 5), (3, 1, 25), (7, 200, 1), (40, 3, 2)):
        errors = []
        for draw in (random_reciprocal_stack, random_reciprocal_stack_reference):
            with pytest.raises(ValueError, match="overflow") as e:
                draw(n, count, seed, log_scale=712.0)
            errors.append(str(e.value))
        assert errors[0] == errors[1]
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        random_reciprocal_stack(2.5, 1, 0)


def test_canonical_storage_is_exact_reciprocal():
    # x * (1/x) is not exactly 1 for many doubles, which is why the lower
    # triangle stores 1/a_ij verbatim rather than being checked post hoc.
    A = random_reciprocal(6, seed=7)
    iu, ju = np.triu_indices(6, k=1)
    assert np.array_equal(A.a[ju, iu], 1.0 / A.a[iu, ju])
    prod = A.a * A.a.T
    assert np.max(np.abs(prod - 1.0)) <= 4e-16


def test_consistent_from_vector_and_detection():
    v = np.array([1.0, 2.0, 5.0, 0.5])
    A = consistent_from_vector(v)
    assert is_consistent(A)
    perturbed = A.a.copy()
    perturbed[0, 1] *= 1.3
    assert not is_consistent(make_reciprocal(perturbed, mode="symmetrize"))


def test_consistent_matrix_perron_is_the_vector():
    v = np.array([2.0, 1.0, 4.0, 0.25, 3.0])
    pp = perron(consistent_from_vector(v))
    assert abs(pp.r - 5.0) <= 1e-10
    assert np.max(np.abs(pp.w - v / v[0])) <= 1e-12


def test_perron_normalization_and_residual(base_matrix):
    pp = perron(base_matrix)
    assert pp.w[0] == 1.0
    assert np.all(pp.w > 0)
    assert pp.residual <= 1e-12
    assert pp.r >= base_matrix.n


def test_perron_nonconvergence_raises():
    A = random_reciprocal(4, seed=3)
    with pytest.raises(RuntimeError, match="did not converge"):
        perron(A, max_iter=2)


def test_perron_rejects_a_max_iter_that_is_not_a_nonnegative_integer():
    # a converging matrix: a cap the step count can never equal would turn
    # off the stall guard, so it is refused before any step
    A = random_reciprocal(4, seed=1)
    with pytest.raises(ValueError, match="max_iter must be nonnegative, got -1"):
        perron(A, max_iter=-1)
    for cap in (2.5, np.float64(50.0), None):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            perron_stack(A.a[None], max_iter=cap)
    assert perron(A, max_iter=np.int64(50)).w.tobytes() == perron(A).w.tobytes()


def test_monomial_similarity_maps_perron_vector():
    # Q A Q^-1 with Q = diag(d) P: its Perron vector is Q w up to scale
    A = random_reciprocal(5, seed=23)
    perm, d = [3, 1, 0, 4, 2], np.array([2.0, 0.5, 1.0, 3.0, 0.25])
    B = make_reciprocal(A.a[np.ix_(perm, perm)] * (d[:, None] / d[None, :]),
                        mode="symmetrize")
    wa = perron(A).w
    wb = perron(B).w
    image = d * wa[perm]
    assert np.max(np.abs(wb - image / image[0])) <= 1e-10
    assert abs(perron(B).r - perron(A).r) <= 1e-10


def test_pareto_dominates_known_instance():
    A = make_reciprocal(np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.5, 1.0, 1.0]]))
    w = np.array([1.0, 2.0, 3.0])
    assert pareto_dominates(A, w, np.array([1.0, 2.0, 2.0]))
    assert not pareto_dominates(A, w, w)
    assert not pareto_dominates(A, np.array([1.0, 2.0, 2.0]), w)


@pytest.mark.parametrize("w", [(1e-320, 1.0, 1.0), (1e308, 1.0, 1e-308)])
def test_pareto_dominates_rejects_a_vector_whose_ratio_overflows(w):
    A = make_reciprocal(np.ones((3, 3)))
    for args in ((w, np.ones(3)), (np.ones(3), w)):
        with pytest.raises(ValueError, match=r"finite ratio max\(w\)/min\(w\)"):
            pareto_dominates(A, *args)


def test_pareto_dominates_shape_check():
    A = random_reciprocal(3, seed=5)
    with pytest.raises(ValueError, match="length"):
        pareto_dominates(A, np.ones(3), np.ones(4))


def test_random_reciprocal_deterministic_and_bounded():
    A = random_reciprocal(5, seed=42)
    B = random_reciprocal(5, seed=42)
    assert np.array_equal(A.a, B.a)
    assert np.all(A.a >= 1.0 / 9.0 - 1e-12) and np.all(A.a <= 9.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_random_reciprocal_is_canonical(n, seed):
    A = random_reciprocal(n, seed=seed)
    assert np.all(np.diag(A.a) == 1.0)
    iu, ju = np.triu_indices(n, k=1)
    assert np.array_equal(A.a[ju, iu], 1.0 / A.a[iu, ju])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=10**6))
def test_perron_eigenvalue_at_least_n(n, seed):
    pp = perron(random_reciprocal(n, seed=seed))
    assert pp.r >= n - 1e-10
    assert pp.residual <= 1e-10 * pp.r


@settings(max_examples=30, deadline=None)
@given(st.lists(positive_entry, min_size=2, max_size=7))
def test_consistent_iff_rank_one_form(vs):
    A = consistent_from_vector(np.array(vs))
    assert is_consistent(A)
    assert abs(perron(A).r - len(vs)) <= 1e-9 * len(vs)


# --- stacked power iteration -------------------------------------------------


def squared_start_reference(a, max_iter=100_000):
    """One matrix: M <- M @ M over its largest row sum until the row sums,
    scaled to first component 1, move by at most 1e-15 times their largest
    entry; all-ones when they stop being finite and positive."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        m = a
        u = m.sum(axis=1)
        s = u / u[0]
        for k in range(1, max_iter + 1):
            m = m @ m
            u = m.sum(axis=1)
            m = m / u.max()
            t = u / u[0]
            if not np.max(np.abs(t - s)) > 1e-15 * (u.max() / u[0]):
                break
            s = t
        else:
            raise RuntimeError("did not converge")
    return (t if np.all(np.isfinite(t) & (t > 0)) else np.ones(len(a))), k


def perron_loop_reference(a, tol=1e-14, max_iter=100_000, w=None, done=0):
    """The one-matrix power iteration from w (all-ones by default) with a
    stop test after every step; `done` iterations are already spent."""
    w = np.ones(a.shape[0]) if w is None else w
    for it in range(done + 1, max_iter + 1):
        v = a @ w
        v /= v[0]
        if np.max(np.abs(v - w)) < tol:
            w = v
            break
        w = v
    else:
        raise RuntimeError("did not converge")
    r = float((a @ w)[0])
    return w, r, float(np.max(np.abs(a @ w - r * w))), it


def perron_reference(a, tol=1e-14, max_iter=100_000):
    """The squared start (orders up to 16), then the loop from it."""
    if a.shape[0] > core.PERRON_SQUARE_MAX_N:
        return perron_loop_reference(a, tol, max_iter)
    w, k = squared_start_reference(a, max_iter)
    return perron_loop_reference(a, tol, max_iter, w, k)


def same_pair(pp, ref) -> bool:
    w, r, residual, it = ref
    return (pp.w.tobytes() == w.tobytes() and pp.r == r
            and pp.residual == residual and pp.iterations == it)


CAP = 3000  # rows slower than this are left to the cap tests


def mixed_rows(n, count, seed, reference=perron_reference, max_spread=1e3):
    """Matrices of order n: consistent ones (two steps), random ones with
    spreads log-uniform up to max_spread (fast to slow), all below CAP
    iterations."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = len(out)
        if k % 4 == 3:
            A = consistent_from_vector(np.exp(rng.uniform(-3.0, 3.0, size=n)))
        else:
            spread = np.exp(rng.uniform(0.0, np.log(max_spread)))
            A = random_reciprocal(n, seed=seed + k, log_scale=np.log(spread))
        try:
            ref = reference(A.a, max_iter=CAP)
        except RuntimeError:
            seed += 1000
            continue
        out.append((A, ref))
    return out


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=core.PERRON_SQUARE_MAX_N),
       st.sampled_from([1, 2, 37]), st.integers(min_value=0, max_value=10**6))
def test_perron_stack_rows_equal_one_matrix_solves(n, B, seed):
    rows = mixed_rows(n, B, seed)
    stack = perron_stack(np.array([A.a for A, _ in rows]))
    its = [ref[3] for _, ref in rows]
    for i, (A, ref) in enumerate(rows):
        assert same_pair(stack[i], ref), (i, its)
        assert same_pair(perron(A), ref), (i, its)


@pytest.mark.parametrize("n", range(2, core.PERRON_SQUARE_MAX_N + 1))
def test_tall_stack_rows_equal_one_matrix_solves(n):
    # 150 rows, as in the shortest `verify` stack: the squarings add whole
    # columns until fewer than PERRON_COLUMN_SUM_MIN_ROWS rows are live
    rows = mixed_rows(n, 150, seed=60 + n)
    stack = perron_stack(np.array([A.a for A, _ in rows]))
    assert all(same_pair(stack[i], ref) for i, (_, ref) in enumerate(rows))


@pytest.mark.parametrize("B", (1, core.PERRON_COLUMN_SUM_MIN_ROWS, 300))
def test_row_sums_are_numpys_own_bit_for_bit(B):
    # tall stacks add whole columns in the order numpy's `add.reduce` sums a
    # row, an implementation detail of numpy: a numpy that sums in another
    # order fails here, not in a distant Perron digest.  Every order is
    # checked, not only those the squared start reaches (n <= 16): past 16 a
    # whole block of 8 columns more joins the partial sums, and past 128
    # numpy's own reduce runs
    rng = np.random.default_rng(B)
    for n in (*range(2, 41), 63, 64, 127, 128, 129, 136):
        m = np.exp(rng.uniform(-20.0, 20.0, (B, n, n)))
        m[0, 0, n // 2] = m[-1, n - 1, 0] = np.inf
        u = np.empty((n + 1, B))
        got = core._row_sums(m, u[:n].T)
        assert got.tobytes() == np.add.reduce(m, 2).tobytes(), (
            f"numpy {np.__version__} sums rows of order {n} in another order")


@pytest.mark.parametrize("n", range(6, 13))
def test_spread_workload_rows_equal_one_matrix_solves(n):
    # where the `spread` benchmark measures: orders 6-12 and entry spreads
    # up to 1e4, through every one-matrix path as well as a mixed stack
    rows = mixed_rows(n, 37, seed=40 + n, max_spread=1e4)
    stack = perron_stack(np.array([A.a for A, _ in rows]))
    for i, (A, ref) in enumerate(rows):
        assert same_pair(stack[i], ref) and same_pair(perron_stack(A.a[None])[0], ref), i
        assert same_pair(perron(A), ref) and same_pair(analyze(A).perron, ref), i


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=core.PERRON_SQUARE_MAX_N + 1, max_value=40),
       st.sampled_from([1, 2, 37]), st.integers(min_value=0, max_value=10**6))
def test_large_orders_keep_the_loop_from_all_ones(n, B, seed):
    rows = mixed_rows(n, B, seed, reference=perron_loop_reference)
    stack = perron_stack(np.array([A.a for A, _ in rows]))
    assert all(same_pair(stack[i], ref) for i, (_, ref) in enumerate(rows))


def test_perron_stack_mixes_fast_and_slow_rows():
    rows = mixed_rows(20, 37, seed=11)
    its = sorted(ref[3] for _, ref in rows)
    assert its[0] <= 3 and its[-1] >= 40
    stack = perron_stack(np.array([A.a for A, _ in rows]))
    assert all(same_pair(stack[i], ref) for i, (_, ref) in enumerate(rows))


def test_squared_start_rows_settle_at_different_squarings():
    rows = mixed_rows(9, 37, seed=11)
    squarings = {squared_start_reference(A.a)[1] for A, _ in rows}
    assert len(squarings) >= 4
    stack = perron_stack(np.array([A.a for A, _ in rows]))
    assert all(same_pair(stack[i], ref) for i, (_, ref) in enumerate(rows))


def _repeated_row(B):
    return np.repeat(random_reciprocal(7, seed=5, log_scale=np.log(100.0)).a[None], B, 0)


def _consistent_rows(n):
    # power-of-two ratios: every row settles at its first squaring and stops
    # at its second power step
    v = 2.0 ** np.random.default_rng(n).integers(-20, 21, (37, n))
    return np.array([consistent_from_vector(x).a for x in v])


@pytest.mark.parametrize("a", (_repeated_row(1), _repeated_row(37), _consistent_rows(5),
                               _consistent_rows(16)), ids=("B=1", "repeated", "consistent5",
                                                           "consistent16"))
def test_rows_that_stop_together_leave_both_loops_together(a):
    # every live row stops at once: both loops write them out and leave
    # without compacting
    refs = [perron_reference(x) for x in a]
    assert len({squared_start_reference(x)[1] for x in a}) == 1
    assert len({ref[3] for ref in refs}) == 1
    stack = perron_stack(a)
    assert all(same_pair(stack[i], ref) for i, ref in enumerate(refs))


def test_the_last_live_row_stops_alone_after_compactions():
    # row 21 takes the most squarings (13) and the most iterations (14), and
    # alone: both loops compact around it before it stops by itself
    rows = mixed_rows(9, 37, seed=11)
    squarings = [squared_start_reference(A.a)[1] for A, _ in rows]
    its = [ref[3] for _, ref in rows]
    assert len(set(squarings)) >= 4 and len(set(its)) >= 4
    for counts in (squarings, its):
        assert counts.count(max(counts)) == 1 and counts.index(max(counts)) == 21
    stack = perron_stack(np.array([A.a for A, _ in rows]))
    assert all(same_pair(stack[i], ref) for i, (_, ref) in enumerate(rows))


@pytest.mark.parametrize("n", (5, 6, 7))
def test_perron_stack_rows_equal_one_matrix_solves_on_the_grid_quotients(n):
    # the 625-row quotient stacks of the verify grids: rows settle and stop
    # at different passes, so the (n, B) buffers are compacted at full width
    a = z_stack(5, _GRID) * [1, 1, n - 4, 1, 1]
    stack = perron_stack(a)
    assert len(set(stack.iterations.tolist())) > 1
    assert all(same_pair(stack[i], perron_reference(a[i])) for i in range(len(a)))


def mp_perron(a, w, r):
    """The Perron pair to 50 digits: Newton's method on A x = r x, x_1 = 1,
    from a float pair."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    n = len(a)
    A, x, r = mp.matrix(a.tolist()), mp.matrix(w.tolist()), mp.mpf(r)
    for _ in range(5):  # quadratic: 1e-13 -> 1e-26 -> 1e-50
        J = mp.matrix(n + 1, n + 1)
        for i in range(n):
            for j in range(n):
                J[i, j] = A[i, j] - (r if i == j else 0)
            J[i, n] = -x[i]
        J[n, 0] = 1
        F = A * x - r * x
        d = mp.lu_solve(J, mp.matrix([-F[i] for i in range(n)] + [1 - x[0]]))
        x, r = mp.matrix([x[i] + d[i] for i in range(n)]), r + d[n]
    return np.array([float(v) for v in x]), float(r)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=core.PERRON_SQUARE_MAX_N),
       st.integers(min_value=0, max_value=10**6))
@example(n=3, seed=72092)
@example(n=3, seed=28335)
def test_squared_start_stays_close_to_a_50_digit_vector(n, seed):
    # measured against the Perron pair itself, not a loop from all-ones: that
    # loop stops within tol of its last step, not of w*, and on the slow rows
    # of these two examples ends 1.5e-12 and 6.1e-12 from the 50-digit vector
    for A, _ in mixed_rows(n, 4, seed):
        pp = perron(A)
        w, r = mp_perron(A.a, pp.w, pp.r)
        assert np.max(np.abs(pp.w - w) / w) <= 1e-12
        assert abs(pp.r - r) <= 1e-12 * r


@pytest.mark.parametrize("n", (3, 8, 16))
def test_squared_start_matches_a_50_digit_vector_on_wide_spreads(n):
    solved = 0
    for seed, spread in itertools.product(range(3), (1e2, 1e3, 1e4)):
        A = random_reciprocal(n, seed=seed, log_scale=np.log(spread))
        try:  # a row that stalls under the absolute stop test is left out
            pp = perron(A, max_iter=CAP)
        except PerronConvergenceError:
            continue
        w, r = mp_perron(A.a, pp.w, pp.r)
        assert np.max(np.abs(pp.w - w) / w) <= 1e-14, (seed, spread)
        assert abs(pp.r - r) <= 1e-14 * r, (seed, spread)
        solved += 1
    assert solved >= 6


@pytest.mark.parametrize("n, stalls", ((4, 10), (6, 17), (9, 8), (12, 5), (20, 2)))
def test_the_hilbert_fallback_stops_the_rows_the_absolute_test_stalls_on(n, stalls):
    # spreads up to 1e3 give Perron vectors with entries in the hundreds,
    # where rounding alone keeps max|u - v| above PERRON_TOL.  The rows the
    # absolute test stops keep their pair bit for bit; the rest stop on the
    # Hilbert gap, well inside the cap, and match a 50-digit solve
    a = random_reciprocal_stack(n, 200, seed=1, log_scale=np.log(1e3))
    stack = perron_stack(a, max_iter=5000)
    assert stack.iterations.max() <= 150
    stopped = []
    for i in range(len(a)):
        try:
            ref = perron_reference(a[i], max_iter=1000)
        except RuntimeError:
            stopped.append(i)
            continue
        assert same_pair(stack[i], ref), i
    assert len(stopped) == stalls
    for i in stopped:
        assert stack.iterations[i] >= 2 * core.PERRON_CHECK_EVERY
        w, r = mp_perron(a[i], stack.w[i], stack.r[i])
        assert np.max(np.abs(stack.w[i] - w) / w) <= 1e-13, i
        assert abs(stack.r[i] - r) <= 1e-13 * r, i


def test_the_hilbert_fallback_stops_wide_z5_points():
    # Z_5(x, y, z, a) with log-parameters in +-9: 98 of these 1000 rows
    # stalled under the absolute test alone
    xyza = np.exp(np.random.default_rng(0).uniform(-9.0, 9.0, (1000, 4)))
    stack = perron_stack(z_stack(5, xyza), max_iter=5000)
    assert stack.iterations.max() < 5000
    assert (stack.residual <= 1e-9 * stack.r).all()


@pytest.mark.xfail(strict=True, raises=PerronConvergenceError,
                   reason="ROADMAP item 1: the loop cycles at a fixed Hilbert gap of 1.45e-12, "
                          "above PERRON_HILBERT_TOL, so no stop rule fires")
@pytest.mark.parametrize("row", (96, 112))
def test_rows_cycling_above_the_hilbert_tolerance_stop(row):
    # spread 1e6: the squared start reaches the Perron vector, then each step
    # moves it by a fixed 1.39e-12; 34 of 70 such stacks (orders 6 to 12,
    # seeds 0 to 9) hold a row that reaches the 100,000 cap
    a = random_reciprocal_stack(6, 200, 0, log_scale=np.log(1e6))[row]
    perron(ReciprocalMatrix(a), max_iter=5000)


@pytest.mark.parametrize("x", (1e160, *(pytest.param(x, marks=pytest.mark.xfail(
    strict=True, raises=PerronConvergenceError,
    reason="ROADMAP item 1: the iterate does not settle, so neither stop rule fires"))
    for x in (1e170, 1e300))))
def test_z5_with_one_wide_parameter_solves(x):
    # Z_5(x, 1, 1, 1) solves at x = 1e160 in 52 steps; at 1e165, 1e170,
    # 1e200 and 1e300 the iterate never settles and the cap is reached, in
    # about 20 ms at 2,000 steps and 0.6 to 0.9 s at the default, so
    # `recipeff z --x 1e200` exits 2
    a = z_stack(5, np.array([[x, 1.0, 1.0, 1.0]]))
    pair = perron_stack(a, max_iter=2000)[0]
    assert np.abs(a[0] @ pair.w - pair.r * pair.w).max() <= 1e-12 * pair.r * pair.w.max()


def test_complex_input_is_rejected_not_truncated():
    # a cast to float drops the imaginary parts and warns with a
    # ComplexWarning, a RuntimeWarning that the test settings turn into an
    # error; with the warning filter reset, each entry point must still raise
    A, z = random_reciprocal(3, seed=0), np.array([1.0, 2.0 + 5j, 3.0])
    calls = (lambda: make_reciprocal(np.array([[1.0, 2.0 + 1j], [0.5, 1.0]])),
             lambda: analyze(A, w=z),
             lambda: build_digraph(A, z),
             lambda: pareto_dominates(A, [1.0, 2.0, 3.0], z),
             lambda: pareto_dominates(A, z, [1.0, 2.0, 3.0]),
             lambda: DigraphStack(A.a[None].astype(complex)),
             lambda: DigraphStack(A.a[None], z[None]),
             lambda: ZStack(5, [[1.0, 2.0, 1.0, 1.0 + 1j]]),
             lambda: conjugated_extension(A, z),
             lambda: perron_stack(np.array([[[1, 2 + 1j], [0.5, 1]]])),
             lambda: z_stack(5, np.array([[1, 2, 3, 1 + 1j]])))
    with warnings.catch_warnings(record=True) as caught:
        warnings.resetwarnings()
        warnings.simplefilter("always")
        for call in calls:
            with pytest.raises(ValueError, match="real, not complex"):
                call()
    assert caught == []


def test_perron_cap_is_exact_at_every_step_count():
    rows = mixed_rows(5, 20, seed=3) + mixed_rows(20, 40, seed=3)
    for A, ref in rows:
        it = ref[3]
        assert same_pair(perron(A, max_iter=it), ref)
        with pytest.raises(PerronConvergenceError, match="did not converge"):
            perron(A, max_iter=it - 1)


def test_perron_cap_can_end_the_squarings():
    A = random_reciprocal(6, seed=4, log_scale=np.log(100.0))
    _, squarings = squared_start_reference(A.a)
    assert squarings >= 3
    for cap in range(squarings):
        with pytest.raises(PerronConvergenceError, match=f"in {cap} iterations at row 0 "):
            perron(A, max_iter=cap)


def test_overflowing_squared_start_starts_from_ones():
    # a_12 * a_23 overflows in the first squaring; the loop from all-ones
    # converges
    a = make_reciprocal(np.array([[1.0, 1e155, 1e155], [1e-155, 1.0, 1e155],
                                  [1e-155, 1e-155, 1.0]])).a
    start, squarings = squared_start_reference(a)
    assert squarings == 1 and np.array_equal(start, np.ones(3))
    ref = perron_loop_reference(a, done=1)
    assert same_pair(perron_stack(np.array([a, random_reciprocal(3, seed=1).a]))[0], ref)
    tall = random_reciprocal_stack(3, 150, seed=1)  # its squarings add columns
    tall[75] = a
    assert same_pair(perron_stack(tall)[75], ref)


def test_perron_stack_of_no_rows():
    for n in (4, 20):
        stack = perron_stack(np.empty((0, n, n)))
        assert stack.w.shape == (0, n) and stack.iterations.shape == (0,)


def test_perron_stack_names_the_row_whose_solve_underflows():
    # a_12 * a_23 / a_13 = 1e150, but the all-ones start underflows w_3 to 0
    # and the loop stops at w = [1, 2e-200, 0], r = 3
    a = make_reciprocal([[1, 1e200, 1e200], [1e-200, 1, 1e150], [1e-200, 1e-150, 1]])
    stack = np.array([random_reciprocal(3, seed=1).a, a.a])
    with pytest.raises(PerronConvergenceError, match="not positive and finite at row 0$"):
        perron(a)
    with pytest.raises(PerronConvergenceError, match="not positive and finite at row 1$"):
        perron_stack(stack)


def test_perron_stack_stops_a_row_whose_iterate_overflows():
    # the first row sum of `big` overflows, so its iterate turns NaN on the
    # first step; the row stops there, well inside the cap, and is named
    big = make_reciprocal([[1, 1e308, 1e308], [1e-308, 1, 1], [1e-308, 1, 1]])
    stack = np.array([random_reciprocal(3, seed=1).a, big.a])
    with pytest.raises(PerronConvergenceError, match="not positive and finite at row 1$"):
        perron_stack(stack, max_iter=50)


def test_perron_stack_names_the_row_that_does_not_converge():
    slow = random_reciprocal(8, seed=54, log_scale=np.log(1000.0))
    fast = [random_reciprocal(8, seed=s) for s in (1, 2, 3)]
    cap = 5 * max(perron(A).iterations for A in fast)
    stack = np.array([fast[0].a, fast[1].a, slow.a, fast[2].a])
    with pytest.raises(RuntimeError, match=r"did not converge in \d+ iterations at row 2 "):
        perron_stack(stack, max_iter=cap)
    with pytest.raises(RuntimeError, match="at row 0 "):
        perron_stack(slow.a[None], max_iter=cap)
    # 4, 8, 7 and 8 squarings: the cap leaves rows 1 and 3 no step, and the
    # row with the least budget left is named, the first on ties
    stack = np.array([random_reciprocal(3, seed=s).a for s in (5, 4, 1, 4)])
    with pytest.raises(RuntimeError, match="in 8 iterations at row 1 "):
        perron_stack(stack, max_iter=8)


def test_perron_cap_is_exact_for_each_row_of_a_stack():
    # the squared start of the middle row overflows: 1 squaring, then
    # 10,002 steps from all-ones.  The other rows take more squarings and
    # leave first; the middle row still gets its whole budget
    a = make_reciprocal(np.array([[1.0, 1e155, 1e10], [1e-155, 1.0, 1e155],
                                  [1e-10, 1e-155, 1.0]])).a
    ref = perron_reference(a)
    stack = np.array([random_reciprocal(3, seed=1).a, a, random_reciprocal(3, seed=4).a])
    assert same_pair(perron_stack(stack, max_iter=ref[3])[1], ref)
    with pytest.raises(PerronConvergenceError, match="at row 1 "):
        perron_stack(stack, max_iter=ref[3] - 1)
    # rows 1 and 3 stop only on the Hilbert gap, after 5 and 12 squarings;
    # rows 0 and 2 stop after one power step.  At a cap below both, the
    # row with the least budget left is named, though row 1 is live before it
    x, y = (random_reciprocal(3, seed=s, log_scale=np.log(1000.0)).a for s in (111, 190))
    stack = np.array([random_reciprocal(3, seed=1).a, x, random_reciprocal(3, seed=4).a, y])
    full = perron_stack(stack)
    assert [squared_start_reference(a)[1] for a in stack] == [7, 5, 8, 12]
    assert full.iterations.tolist() == [8, 37, 9, 44]
    assert all(same_pair(full[i], perron_reference(stack[i])) for i in (0, 2))
    for cap in (20, 43):
        with pytest.raises(PerronConvergenceError, match=f"in {cap} iterations at row 3 "):
            perron_stack(stack, max_iter=cap)


def test_random_reciprocal_stack_rows_are_the_matrices():
    # one stream per seed: row k is the same at every count > k, and row 0
    # is random_reciprocal
    for n in (2, 3, 8):
        stack = random_reciprocal_stack(n, 5, 17)
        assert stack.shape == (5, n, n)
        assert stack[0].tobytes() == random_reciprocal(n, seed=17).a.tobytes()
        for count in range(6):
            assert random_reciprocal_stack(n, count, 17).tobytes() == stack[:count].tobytes()
    with pytest.raises(ValueError, match="at least 2"):
        random_reciprocal_stack(1, 1, 0)
    with pytest.raises(ValueError, match="overflow"), np.errstate(over="ignore"):
        random_reciprocal_stack(3, 1, 0, log_scale=1e4)


def test_random_reciprocal_stack_rejects_a_bad_count():
    assert random_reciprocal_stack(4, 0, 7).shape == (0, 4, 4)
    assert random_reciprocal_stack(3, np.int64(2), 7).tobytes() == (
        random_reciprocal_stack(3, 2, 7).tobytes())
    with pytest.raises(ValueError, match="count must be nonnegative, got -1"):
        random_reciprocal_stack(3, -1, 0)
    for count in (2.5, np.float64(2.0), None, "2", [2]):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            random_reciprocal_stack(3, count, 0)


SEED_EDGES = (0, 2**32 - 1, 2**32, 2**64, 2**128 - 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=4),
       st.lists(st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**128 - 1)), max_size=3),
       st.sampled_from([0.0, float(np.log(9.0)), 50.0]))
@example(12, 3, list(SEED_EDGES), 50.0)
@example(2, 1, list(SEED_EDGES), 0.0)
@example(60, 2, [1, 2**128 - 1], float(np.log(9.0)))  # 1,770 doubles per row
def test_random_reciprocal_stack_is_default_rng_bit_for_bit(n, count, seeds, log_scale):
    # the draw against the installed numpy's own generator, so a change of
    # numpy's stream fails here
    iu, ju = np.triu_indices(n, k=1)
    for seed in seeds:
        stack = random_reciprocal_stack(n, count, seed, log_scale)
        assert stack.shape == (count, n, n)
        want = np.random.default_rng(seed).uniform(-log_scale, log_scale, (count, len(iu)))
        assert stack[:, iu, ju].tobytes() == np.exp(want).tobytes()


def test_random_reciprocal_stack_seed_domain():
    for seed, same in ((np.int64(7), 7), (np.uint32(7), 7), (True, 1), (False, 0)):
        assert random_reciprocal_stack(3, 2, seed).tobytes() == (
            random_reciprocal_stack(3, 2, same).tobytes())
    for seed in (-1, 2**128, 2**200):
        with pytest.raises(ValueError, match=f"got {seed}"):
            random_reciprocal_stack(3, 2, seed)
    for seed in (1.5, np.float64(2.0), None, "5", [1, 2]):
        with pytest.raises(TypeError, match="integers"):
            random_reciprocal(3, seed=seed)


def test_random_reciprocal_rejects_what_overflows_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # exp(-712) is subnormal and its reciprocal overflows: a_31 was inf
        with pytest.raises(ValueError, match="overflow"):
            random_reciprocal(3, seed=25, log_scale=712.0)
        # rows 0 to 2 of seed 5's stack fit, and row 3 does not
        assert np.isfinite(random_reciprocal_stack(3, 3, 5, log_scale=712.0)).all()
        with pytest.raises(ValueError, match="row 3 of seed 5's stack or"):
            random_reciprocal_stack(3, 4, 5, log_scale=712.0)
        for bad in (np.nan, np.inf, -np.inf, -1.0, 1e308):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                random_reciprocal_stack(3, 1, 0, log_scale=bad)
        a = random_reciprocal(3, seed=25, log_scale=700.0).a
    assert np.isfinite(a).all() and a.max() > 1e300


def test_draws_at_large_orders_hold_no_memory_afterwards():
    # one draw at each order, then nothing kept: no per-order table or index cache
    code = ("import gc, tracemalloc; import recipeff; tracemalloc.start(); "
            "[recipeff.random_reciprocal(n, seed=n) for n in (50, 167, 283, 400, 520)]; "
            "gc.collect(); print(tracemalloc.get_traced_memory()[0])")
    src = str(Path(core.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) < 2 * 2**20
