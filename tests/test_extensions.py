import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import consistent_from_vector

from recipeff.core import (
    make_reciprocal,
    perron,
    random_reciprocal,
)
from recipeff import extensions
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
    assert not is_extension(Bj, A, tol=0.0)
    assert is_extension(Bj, A, tol=1e-6)


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


def test_extension_result_invariant():
    bad = all_ones(3)
    with pytest.raises(ValueError, match="row sums"):
        ExtensionResult(B=bad, target_sum=7.0, perron_check=0.0)


def test_conjugated_extension_identity_diag_matches():
    A = random_reciprocal(4, seed=17)
    via_conj = conjugated_extension(A, np.ones(4))
    direct = constant_row_sum_extension(A).B
    assert np.array_equal(via_conj.a, direct.a)


def test_conjugated_extension_input_checks():
    A = random_reciprocal(3, seed=4)
    with pytest.raises(ValueError, match="expected 3"):
        conjugated_extension(A, np.ones(4))
    with pytest.raises(ValueError, match="positive"):
        conjugated_extension(A, np.array([1.0, -1.0, 1.0]))


def test_conjugated_extension_reference_chain(
    base_matrix, diag, extension_perron_reference
):
    A = conjugated_extension(base_matrix, diag)
    assert is_extension(A, base_matrix, tol=0.0)
    # closed form: the Perron direction is (1/d, 1) renormalized
    closed = np.append(1.0 / diag, 1.0)
    closed /= closed[0]
    assert np.array_equal(closed, extension_perron_reference)
    pp = perron(A)
    assert np.max(np.abs(pp.w - extension_perron_reference)) <= 1e-9
    assert analyze(A).efficient


def test_extension_source_scan_clean():
    rep = extension_source_scan(all_ones(3), samples=100, seed=0)
    assert rep.ok and rep.failures == () and rep.samples == 100
    rep = extension_source_scan(z_matrix(ZParams(5, 0.2, 2.0, 0.5, 1.5)),
                                samples=200, seed=1)
    assert rep.ok
    # base whose own Perron vector is inefficient
    rep = extension_source_scan(z_matrix(ZParams(5, 0.25, 2.0, 2.0, 0.5)),
                                samples=200, seed=2)
    assert rep.ok


def test_extension_source_scan_stacks_the_sequential_samples(monkeypatch):
    """The scan's stack holds, bit for bit, the extensions that drawing one
    column at a time gives, and flags the samples the one-matrix check does."""
    stacks, real = [], extensions.analyze_stack
    monkeypatch.setattr(extensions, "analyze_stack",
                        lambda As, **kw: stacks.append(As) or real(As, **kw))
    # a check that fails exactly when the appended vertex has out-degree 2
    monkeypatch.setattr(extensions, "has_no_source", lambda G: G.adj[-1].sum() != 2)
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
