import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recipeff.core as core
from helpers import consistent_from_vector
from recipeff.core import (
    PERRON_STOP_EVERY,
    PerronConvergenceError,
    ReciprocalMatrix,
    make_reciprocal,
    pareto_dominates,
    perron,
    perron_stack,
    random_reciprocal,
    random_reciprocal_stack,
)

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


def test_symmetrize_overwrites_lower_triangle():
    a = np.array([[1.0, 3.0], [7.0, 5.0]])  # junk diagonal and lower entry
    A = make_reciprocal(a, mode="symmetrize")
    assert A.a[0, 0] == 1.0 and A.a[1, 1] == 1.0
    assert A.a[0, 1] == 3.0
    assert A.a[1, 0] == 1.0 / 3.0


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


def mixed_rows(n, count, seed, reference=perron_reference):
    """Matrices of order n: consistent ones (two steps), random ones with
    spreads log-uniform up to 1e3 (fast to slow), all below CAP iterations."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = len(out)
        if k % 4 == 3:
            A = consistent_from_vector(np.exp(rng.uniform(-3.0, 3.0, size=n)))
        else:
            spread = np.exp(rng.uniform(0.0, np.log(1e3)))
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
    assert its[0] <= 3 and its[-1] >= 5 * PERRON_STOP_EVERY
    stack = perron_stack(np.array([A.a for A, _ in rows]))
    assert all(same_pair(stack[i], ref) for i, (_, ref) in enumerate(rows))


def test_squared_start_rows_settle_at_different_squarings():
    rows = mixed_rows(9, 37, seed=11)
    squarings = {squared_start_reference(A.a)[1] for A, _ in rows}
    assert len(squarings) >= 4
    stack = perron_stack(np.array([A.a for A, _ in rows]))
    assert all(same_pair(stack[i], ref) for i, (_, ref) in enumerate(rows))


def both_references(a, max_iter):
    """The squared start's pair and the loop's; either may stall under the
    absolute stop test on a matrix the other solves."""
    return perron_reference(a, max_iter=max_iter), perron_loop_reference(a, max_iter=max_iter)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=core.PERRON_SQUARE_MAX_N),
       st.integers(min_value=0, max_value=10**6))
def test_squared_start_stays_close_to_the_loop(n, seed):
    # the loop stops within tol of its last step, not of w*: on slow rows
    # its own error reaches a few 1e-13
    for _, (new, old) in mixed_rows(n, 4, seed, reference=both_references):
        assert np.max(np.abs(new[0] - old[0]) / old[0]) <= 1e-12
        assert abs(new[1] - old[1]) <= 1e-12 * old[1]


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


def test_perron_cap_is_exact_at_every_step_count():
    seen = set()
    rows = mixed_rows(5, 20, seed=3) + mixed_rows(20, 40, seed=3)
    for A, ref in rows:
        it = ref[3]
        if A.n > core.PERRON_SQUARE_MAX_N:
            seen.add(it % PERRON_STOP_EVERY)
        assert same_pair(perron(A, max_iter=it), ref)
        with pytest.raises(PerronConvergenceError, match="did not converge"):
            perron(A, max_iter=it - 1)
    # the boundary fell on and off the stop-test steps
    assert {0, 1} < seen and len(seen) >= 5


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


def test_perron_stack_names_the_row_that_does_not_converge():
    slow = random_reciprocal(8, seed=54, log_scale=np.log(1000.0))
    fast = [random_reciprocal(8, seed=s) for s in (1, 2, 3)]
    cap = 5 * max(perron(A).iterations for A in fast)
    stack = np.array([fast[0].a, fast[1].a, slow.a, fast[2].a])
    with pytest.raises(RuntimeError, match=r"did not converge in \d+ iterations at row 2 "):
        perron_stack(stack, max_iter=cap)
    with pytest.raises(RuntimeError, match="at row 0 "):
        perron_stack(slow.a[None], max_iter=cap)


def test_upper_indices_are_cached_and_read_only():
    iu, ju = core._upper(6)
    assert core._upper(6)[0] is iu
    assert not iu.flags.writeable and not ju.flags.writeable
    ref = np.triu_indices(6, k=1)
    assert np.array_equal(iu, ref[0]) and np.array_equal(ju, ref[1])
    with pytest.raises(ValueError):
        iu[0] = 1


def test_random_reciprocal_stack_rows_are_the_matrices():
    for n in (2, 3, 8):
        seeds = [5, 17, 1000 + n]
        stack = random_reciprocal_stack(n, seeds)
        assert stack.shape == (3, n, n)
        for row, s in zip(stack, seeds):
            assert row.tobytes() == random_reciprocal(n, seed=s).a.tobytes()
    with pytest.raises(ValueError, match="at least 2"):
        random_reciprocal_stack(1, [0])
    with pytest.raises(ValueError, match="overflow"), np.errstate(over="ignore"):
        random_reciprocal_stack(3, [0], log_scale=1e4)
