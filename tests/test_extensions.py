import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import consistent_from_vector

from recipeff.core import (
    make_reciprocal,
    perron,
    random_reciprocal,
)
from recipeff import digraph, extensions, harness
from recipeff.digraph import analyze
from recipeff.extensions import (
    ExtensionResult,
    conjugated_extension,
    constant_row_sum_extension,
    extension_report,
    extension_source_scan,
    is_extension,
    remove_index,
    row_sums,
    well_behaved_type_I,
)
from recipeff.zfamily import ZParams, z_matrix


def all_ones(n):
    return make_reciprocal(np.ones((n, n)))


def ranks_kept(A, B):
    """Ranking check of extending A to B, from both Perron vectors."""
    return extensions._ranks_kept(A, B, perron(A).w, perron(B).w)


def test_remove_index_all_ones():
    assert np.array_equal(remove_index(all_ones(4), 4).a, np.ones((3, 3)))


def test_remove_index_interior():
    A = random_reciprocal(5, seed=2)
    B = remove_index(A, 3)
    keep = [0, 1, 3, 4]
    assert np.array_equal(B.a, A.a[np.ix_(keep, keep)])


def test_remove_index_middle_of_z_family():
    A5 = z_matrix(ZParams(5, 2.0, 3.0, 5.0, 7.0))
    A4 = z_matrix(ZParams(4, 2.0, 3.0, 5.0, 7.0))
    assert np.array_equal(remove_index(A5, 3).a, A4.a)


def test_remove_index_bounds():
    with pytest.raises(ValueError, match="out of range"):
        remove_index(all_ones(4), 5)
    with pytest.raises(ValueError, match="order >= 3"):
        remove_index(all_ones(2), 1)
    for i in (2.0, 2.5):  # in range, but not an index
        with pytest.raises(TypeError):
            remove_index(all_ones(4), i)
    assert remove_index(all_ones(4), np.int64(2)).n == 3


def test_is_extension_basics(base_matrix, conjugate_reference):
    assert is_extension(all_ones(4), all_ones(3))
    B6 = constant_row_sum_extension(base_matrix).B
    assert is_extension(B6, base_matrix)
    assert not is_extension(B6, conjugate_reference)
    with pytest.raises(ValueError, match="order mismatch"):
        is_extension(all_ones(5), all_ones(3))


def test_is_extension_tolerance():
    A = random_reciprocal(3, seed=9)
    B = constant_row_sum_extension(A).B
    jittered = B.a.copy()
    jittered[0, 1] *= 1.0 + 1e-9
    Bj = make_reciprocal(jittered, mode="symmetrize")
    assert not is_extension(Bj, A)  # the comparison is exact


def test_row_sums_and_well_behaved(conjugate_reference):
    assert not well_behaved_type_I(all_ones(4))
    r = row_sums(conjugate_reference)
    assert well_behaved_type_I(conjugate_reference)
    assert abs(float(r[0] - r[-1]) - 5.79) <= 1e-12


def test_well_behaved_matches_definition_on_consistent():
    v = np.array([4.0, 2.5, 1.2, 1.0, 0.3])  # descending: row sums descend too
    A = consistent_from_vector(v)
    r = row_sums(A)
    assert well_behaved_type_I(A) == (r[0] - r[-1] > 1.0)
    assert r[0] > r[-1]


def test_constant_row_sum_extension_all_ones():
    res = constant_row_sum_extension(all_ones(5))
    assert abs(res.target_sum - 6.0) <= 1e-12
    assert np.max(np.abs(res.B.a - 1.0)) <= 1e-12
    assert res.perron_check <= 1e-10


def test_constant_row_sum_extension_reference(conjugate_reference):
    res = constant_row_sum_extension(conjugate_reference)
    assert res.perron_check <= 1e-10
    r = row_sums(conjugate_reference)
    # the target sum solves 1 + sum 1/(s - r_i) = s
    f = 1.0 + np.sum(1.0 / (res.target_sum - r)) - res.target_sum
    assert abs(f) <= 1e-11
    assert res.target_sum > float(np.max(r))
    assert is_extension(res.B, conjugate_reference)
    # all-ones is the Perron vector of the result
    pp = perron(res.B)
    assert np.max(np.abs(pp.w - 1.0)) <= 1e-10
    assert abs(pp.r - res.target_sum) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_constant_row_sum_extension_random(seed):
    A = random_reciprocal(4, seed=seed)
    res = constant_row_sum_extension(A)
    sums = row_sums(res.B)
    assert np.max(np.abs(sums - res.target_sum)) <= 1e-10 * res.target_sum
    assert np.all(res.B.a[:4, 4] > 0)
    assert np.max(np.abs(perron(res.B).w - 1.0)) <= 1e-8
    assert is_extension(res.B, A)


def test_constant_row_sum_extension_above_float_resolution():
    # row sums past 512, where adjacent floats are more than 1e-13 apart: the
    # Newton solve stops at the first step that does not increase the offset
    wide = make_reciprocal(np.array([[1.0, 500.0, 500.0],
                                     [0.002, 1.0, 1.0],
                                     [0.002, 1.0, 1.0]]))
    for A in (wide, random_reciprocal(520, seed=1)):
        res = constant_row_sum_extension(A)
        assert res.target_sum > float(np.max(row_sums(A))) >= 512
        assert is_extension(res.B, A)


@pytest.mark.parametrize("n", [500, 600, 800])
def test_constant_row_sum_extension_wide_orders(n):
    # forming each appended entry as s - r_i cancelled here: 24 of these 30
    # matrices missed the row-sum check that ExtensionResult makes
    for seed in range(10):
        A = random_reciprocal(n, seed=seed)
        res = constant_row_sum_extension(A)
        assert res.target_sum > float(np.max(row_sums(A)))
        assert is_extension(res.B, A)


def test_constant_row_sum_extension_two_by_two_spreads():
    # the offset u = s - (1 + b) solves 1/u + 1/(u + b - 1/b) = b + u, so
    # u = 1/b to within 1/b^2 and the appended column is (1/b, b)
    for e in range(4, 301):
        b = 10.0 ** e
        res = constant_row_sum_extension(make_reciprocal(np.array([[1.0, b], [1.0 / b, 1.0]])))
        col = res.B.a[:2, 2]
        assert col[0] == pytest.approx(1.0 / b, rel=1e-8), b
        assert col[1] == pytest.approx(b, rel=1e-8), b


def test_constant_row_sum_extension_tied_rows_at_1e200():
    # two rows tie for the largest sum 1e200 + 2, so the offset is about
    # 2e-200, and an unscaled Newton step would square its reciprocal
    A = make_reciprocal(np.array([[1.0, 1e200, 1.0], [1e-200, 1.0, 1e-200],
                                  [1.0, 1e200, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = constant_row_sum_extension(A)
    assert res.target_sum == 1e200
    assert res.B.a[:3, 3] == pytest.approx([2e-200, 1e200, 2e-200], rel=1e-12)


def test_constant_row_sum_extension_exact_root():
    # r = (3, 1.5): s = 3.5 solves 1 + 1/(s - 3) + 1/(s - 1.5) = s exactly
    res = constant_row_sum_extension(make_reciprocal(np.array([[1.0, 2.0], [0.5, 1.0]])))
    assert res.target_sum == 3.5
    assert res.B.a[:2, 2].tolist() == [0.5, 2.0]


def test_target_sum_is_a_float_on_both_newton_exits():
    # at 1e300 Newton's first step does not raise u, so the start is returned;
    # the random matrix takes steps, whose u was an np.float64
    for A, sum_ in ((make_reciprocal(np.array([[1.0, 1e300], [1e-300, 1.0]])), 1e300),
                    (random_reciprocal(4, 0), None)):
        res = constant_row_sum_extension(A)
        assert type(res.target_sum) is float
        assert sum_ is None or res.target_sum == sum_


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 60), st.integers(0, 10**6), st.floats(0.0, np.log(1e8)))
# stalled under the absolute Perron stop test alone
@example(16, 40, 3.0)
def test_both_constructions_close_every_row(n, seed, log_scale):
    A = random_reciprocal(n, seed=seed, log_scale=log_scale)
    d = np.exp(np.random.default_rng(seed).uniform(-2.0, 2.0, size=n))
    res = constant_row_sum_extension(A)
    B = conjugated_extension(A, d)
    # B conjugated by E = diag(d, 1) is the constant-row-sum extension of D A D^-1.
    # Its rows summing to s is B (1/e) = s (1/e): the positive vector (1/d, 1) is
    # an eigenvector of the positive B, so (Perron-Frobenius) its Perron vector
    e = np.append(d, 1.0)
    s = constant_row_sum_extension(extensions._conjugate(A, d)).target_sum
    for sums, target in ((row_sums(res.B), res.target_sum),
                         ((B.a * (e[:, None] / e[None, :])).sum(axis=1), s)):
        assert np.max(np.abs(sums - target)) <= extensions.ROW_SUM_RTOL * target
    if log_scale <= np.log(1e3):
        assert np.max(np.abs(perron(res.B).w - 1.0)) <= 1e-8
        assert np.max(np.abs(perron(B).w * e / e[0] - 1.0)) <= 1e-8


def test_extension_result_invariant():
    bad = all_ones(3)  # row sums 3 against 7: deviation 4, budget 1e-10 * 7
    with pytest.raises(ValueError, match=r"^row sums deviate from the target by 4\.000e\+00, "
                                         r"over the budget ROW_SUM_RTOL \* target = 7\.000e-10$"):
        ExtensionResult(B=bad, target_sum=7.0)


def test_conjugated_extension_identity_diag_matches():
    A = random_reciprocal(4, seed=17)
    via_conj = conjugated_extension(A, np.ones(4))
    direct = constant_row_sum_extension(A).B
    assert np.array_equal(via_conj.a, direct.a)


def test_conjugated_extension_runs_through_the_row_sum_check(monkeypatch):
    A, d = random_reciprocal(5, seed=3), np.array([0.5, 2.0, 1.0, 4.0, 0.25])
    ext = constant_row_sum_extension(extensions._conjugate(A, d))
    B = conjugated_extension(A, d)
    assert is_extension(B, A)
    assert np.array_equal(B.a[:5, 5], ext.B.a[:5, 5] / d)
    monkeypatch.setattr(extensions, "ROW_SUM_RTOL", -1.0)
    with pytest.raises(ValueError, match="row sums deviate"):
        conjugated_extension(A, d)


def test_conjugated_extension_far_apart_diagonal():
    A = make_reciprocal(np.array([[1.0, 2.0], [0.5, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        B = conjugated_extension(A, (1e-5, 1e5))
        w = perron(B).w
    assert is_extension(B, A)
    # the direction (1/d, 1), scaled to w[0] = 1
    assert np.max(np.abs(w / np.array([1.0, 1e-10, 1e-5]) - 1.0)) <= 1e-8


def test_conjugated_extension_input_checks():
    A = random_reciprocal(3, seed=4)
    with pytest.raises(ValueError, match="expected 3"):
        conjugated_extension(A, np.ones(4))
    with pytest.raises(ValueError, match="positive"):
        conjugated_extension(A, np.array([1.0, -1.0, 1.0]))
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="diagonal entries must be positive and finite"):
            conjugated_extension(A, np.array([1.0, bad, 1.0]))
    with pytest.raises(ValueError, match="diagonal ratios overflow"):
        conjugated_extension(A, np.array([1.0, 1e-320, 1.0]))
    # D A D^-1 is finite, but B''s appended entry 1e300 over d = 1e-300 is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="appended column is not finite"):
            conjugated_extension(all_ones(2), (1e-300, 1.0))


def test_conjugated_extension_reference_chain(
    base_matrix, diag, extension_perron_reference
):
    A = conjugated_extension(base_matrix, diag)
    assert is_extension(A, base_matrix)
    # closed form: the Perron direction is (1/d, 1) renormalized
    closed = np.append(1.0 / diag, 1.0)
    closed /= closed[0]
    assert np.array_equal(closed, extension_perron_reference)
    pp = perron(A)
    assert np.max(np.abs(pp.w - extension_perron_reference)) <= 1e-9
    assert analyze(A).efficient


def test_extension_source_scan_clean():
    rep = extension_source_scan(all_ones(3), samples=100, seed=0)
    assert rep.failures == () and rep.samples == 100
    rep = extension_source_scan(z_matrix(ZParams(5, 0.2, 2.0, 0.5, 1.5)),
                                samples=200, seed=1)
    assert rep.failures == ()
    # base whose own Perron vector is inefficient
    rep = extension_source_scan(z_matrix(ZParams(5, 0.25, 2.0, 2.0, 0.5)),
                                samples=200, seed=2)
    assert rep.failures == ()


def test_extension_source_scan_stacks_the_sequential_samples(monkeypatch):
    """The scan's stack holds, bit for bit, the extensions that drawing one
    column at a time gives, and flags the samples the one-matrix check does."""
    stacks, real = [], digraph.perron_stack
    monkeypatch.setattr(digraph, "perron_stack", lambda As: stacks.append(As) or real(As))
    # a check that fails exactly when the appended vertex has out-degree 2
    monkeypatch.setattr(extensions, "has_no_source_stack",
                        lambda adj: adj[:, -1].sum(axis=1) != 2)
    for n, seed in ((3, 3000), (6, 3005), (8, 3019)):
        A = random_reciprocal(n, seed=seed - 1000)
        rep = extension_source_scan(A, 50, seed=seed)
        rng, span = np.random.default_rng(seed), np.log(extensions.APPENDED_SPAN)
        flagged = []
        for k, row in enumerate(stacks.pop()):
            B = extensions._append_column(A, np.exp(rng.uniform(-span, span, size=n)))
            assert row.tobytes() == B.a.tobytes()
            if analyze(B).digraph.adj[-1].sum() == 2:
                flagged.append(k)
        assert rep.failures == tuple(flagged)
        assert 0 < len(flagged) < 50


def test_extension_source_scan_validates_samples():
    with pytest.raises(ValueError, match="samples"):
        extension_source_scan(all_ones(3), samples=0, seed=0)


def test_extension_source_scan_takes_random_reciprocals_seeds():
    # a scan seed is an integer in [0, 2**128), as for random_reciprocal
    for seed in (-1, 2**128):
        with pytest.raises(ValueError, match=f"got {seed}"):
            extension_source_scan(all_ones(3), samples=5, seed=seed)
    for seed in (None, [1, 2], 1.5):
        with pytest.raises(TypeError, match="integers"):
            extension_source_scan(all_ones(3), samples=5, seed=seed)
    assert extension_source_scan(all_ones(3), samples=5, seed=2**128 - 1).failures == ()


@pytest.mark.parametrize("flag_out_degree", [False, True])
def test_stacked_scan_failures_are_the_one_base_scans(monkeypatch, flag_out_degree):
    # verify's 20 bases, whose samples the suite solves order by order beside
    # its other random checks' rows, flag the samples each one-base scan
    # reports; with the real check no sample fails, so a second run flags
    # the samples whose appended vertex has out-degree 2
    if flag_out_degree:
        for module in (extensions, harness):
            monkeypatch.setattr(module, "has_no_source_stack",
                                lambda adj: adj[:, -1].sum(axis=1) != 2)
    tallied = {}
    monkeypatch.setattr(harness, "_tally",
                        lambda cid, template, bad, name: tallied.setdefault(cid, bad))
    harness._random_records(1e-9)
    bad = tallied["no_source.random_extensions"].reshape(20, 50)
    for b in range(20):
        one = extension_source_scan(random_reciprocal(3 + b % 6, seed=2000 + b), 50, seed=3000 + b)
        assert one.seed == 3000 + b and one.failures == tuple(np.flatnonzero(bad[b]).tolist())
    assert bad.any() == flag_out_degree


def test_order_preservation_reference(base_matrix, diag):
    A = conjugated_extension(base_matrix, diag)
    preserved, ra, rb = ranks_kept(base_matrix, A)
    assert not preserved
    assert ra == (1, 4, 5, 2, 3)
    assert rb == (3, 3, 3, 2, 1)


def test_order_preservation_all_ones():
    preserved, ra, rb = ranks_kept(all_ones(3), all_ones(4))
    assert preserved and ra == (1, 1, 1) and rb == (1, 1, 1)


def test_order_preservation_consistent_base():
    v = np.array([1.0, 3.0, 0.2, 2.0])
    A = consistent_from_vector(v)
    res = constant_row_sum_extension(A)
    preserved, ra, rb = ranks_kept(A, res.B)
    assert ra == (3, 1, 4, 2)  # ranks of v itself
    assert isinstance(preserved, bool) and len(rb) == 4


def test_order_preservation_requires_extension():
    B = constant_row_sum_extension(random_reciprocal(3, seed=2)).B
    with pytest.raises(ValueError, match="not an extension"):
        ranks_kept(random_reciprocal(3, seed=1), B)


def dense_ranks_reference(w):
    """`extensions._dense_ranks` as a loop over the sorted values, pair by pair."""
    gap = extensions.RANK_TIE_TOL * float(np.max(w))
    order = np.argsort(-w, kind="stable")
    ranks = np.empty(w.size, dtype=int)
    rank = 1
    ranks[order[0]] = rank
    for prev, cur in zip(order, order[1:]):
        if w[prev] - w[cur] > gap:
            rank += 1
        ranks[cur] = rank
    return tuple(int(v) for v in ranks)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 13),
                          st.sampled_from([0.0, 0.4, 0.6, 0.99, 1.0, 1.01, 2.0])),
                max_size=8))
def test_dense_ranks_match_the_pairwise_loop(base, plants):
    # planted near-ties: each copies an earlier value less `step` tie gaps, so
    # chains of sub-gap steps, exact ties and steps at the gap all occur
    gap = extensions.RANK_TIE_TOL * max(base)
    w = list(base)
    for i, step in plants:
        w.append(w[i % len(w)] - step * gap)
    w = np.array(w)
    assert extensions._dense_ranks(w) == dense_ranks_reference(w)


def test_dense_ranks_chain_ties_within_tolerance():
    gap = extensions.RANK_TIE_TOL
    w = np.array([1.0, 1.0 - 0.6 * gap, 1.0 - 1.2 * gap, 0.5, 1.0 - 5 * gap])
    assert extensions._dense_ranks(w) == (1, 1, 1, 3, 2)
    # at 1e8 the tie gap is exactly 1: a step of the gap itself ties
    assert extensions._dense_ranks(np.array([1e8, 1e8 - 1, 1e8 - 2.5])) == (1, 1, 2)


def test_extension_report_fields(conjugate_reference, perron_calls):
    res = constant_row_sum_extension(conjugate_reference)
    d = extension_report(conjugate_reference, res.B, res.target_sum)
    assert sorted(perron_calls) == [5, 6]  # one solve per matrix
    assert d["base_order"] == 5
    assert d["target_sum"] == res.target_sum
    assert len(d["appended_column"]) == 5
    assert len(d["perron_vector"]) == 6
    assert d["efficient"] is True
    assert d["order_preserved"] is False
