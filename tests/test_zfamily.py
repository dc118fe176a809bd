import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipeff.core import make_reciprocal, perron
from recipeff.digraph import (
    EfficiencyDigraph,
    analyze,
    build_digraph,
    sinks,
    strongly_connected,
)
from recipeff.zfamily import (
    CYCLE_CATALOG,
    SYMMETRY_IMAGES,
    RegionVerdict,
    ZParams,
    eigen_identity_residuals,
    evaluate_z,
    evaluate_z_stack,
    forbidden_reverse_edges,
    guarantee_a1,
    guarantee_n4,
    guarantee_n5plus,
    middle_quotient_sinks,
    predicted_edges,
    reduce_to_min_first,
    table_oracle,
    z_matrix,
)

param_value = st.floats(min_value=1.0 / 9.0, max_value=9.0)
SMALL_AXES = (0.25, 1.0, 4.0)


def small_grid(n):
    for xyza in itertools.product(SMALL_AXES, repeat=4):
        yield ZParams(n, *xyza)


def test_zparams_validation():
    with pytest.raises(ValueError, match="n must be"):
        ZParams(3, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        ZParams(5, 1.0, -2.0, 1.0, 1.0)


def test_region_verdict_consistency_enforced():
    with pytest.raises(ValueError, match="agree"):
        RegionVerdict(True, "T5(i)", "identity")


def test_z_matrix_entry_placement():
    p = ZParams(6, 2.0, 3.0, 5.0, 7.0)
    A = z_matrix(p)
    assert A[1, 5] == 3.0 and A[1, 6] == 2.0
    assert A[2, 5] == 7.0 and A[2, 6] == 5.0
    assert A[5, 1] == 1.0 / 3.0 and A[6, 2] == 1.0 / 5.0
    # rows and columns 3..n-2 (the middle class) are all ones
    assert np.all(A.a[2:4, :] == 1.0)
    assert np.all(A.a[:, 2:4] == 1.0)


def test_z_matrix_n4_has_no_middle():
    A = z_matrix(ZParams(4, 2.0, 3.0, 5.0, 7.0))
    assert A[1, 3] == 3.0 and A[1, 4] == 2.0
    assert A[2, 3] == 7.0 and A[2, 4] == 5.0


def test_middle_components_collapse_exactly():
    for n in (6, 7, 8):
        w = perron(z_matrix(ZParams(n, 0.3, 2.5, 0.8, 1.7))).w
        mid = w[2 : n - 2]
        assert np.all(mid == mid[0])


def test_symmetry_images_are_involutions():
    pt = (0.3, 2.0, 0.7, 1.4)
    for name, f in SYMMETRY_IMAGES.items():
        assert f(*f(*pt)) == pt


def test_symmetry_images_are_similarities():
    # each parameter image is realized by swapping rows/columns of Z_n
    p = ZParams(5, 0.3, 2.0, 0.7, 1.4)
    A = z_matrix(p).a
    swap_last = A[np.ix_([0, 1, 2, 4, 3], [0, 1, 2, 4, 3])]
    assert np.array_equal(swap_last, z_matrix(ZParams(5, *SYMMETRY_IMAGES["(y,x,a,z)"](*p.xyza))).a)
    swap_first = A[np.ix_([1, 0, 2, 3, 4], [1, 0, 2, 3, 4])]
    assert np.array_equal(swap_first, z_matrix(ZParams(5, *SYMMETRY_IMAGES["(z,a,x,y)"](*p.xyza))).a)
    both = A[np.ix_([1, 0, 2, 4, 3], [1, 0, 2, 4, 3])]
    assert np.array_equal(both, z_matrix(ZParams(5, *SYMMETRY_IMAGES["(a,z,y,x)"](*p.xyza))).a)


def test_reduce_to_min_first():
    img, red = reduce_to_min_first(0.2, 2.0, 0.5, 1.5)
    assert img == (0.2, 2.0, 0.5, 1.5) and red == "identity"
    img, red = reduce_to_min_first(2.0, 0.2, 1.5, 0.5)
    assert img == (0.2, 2.0, 0.5, 1.5) and red == "(y,x,a,z)"
    img, red = reduce_to_min_first(0.5, 1.5, 0.2, 2.0)
    assert img == (0.2, 2.0, 0.5, 1.5) and red == "(z,a,x,y)"
    img, red = reduce_to_min_first(1.5, 0.5, 2.0, 0.2)
    assert img == (0.2, 2.0, 0.5, 1.5) and red == "(a,z,y,x)"
    # ties resolve to the first symmetry in the fixed order
    assert reduce_to_min_first(1.0, 1.0, 1.0, 1.0)[1] == "identity"
    assert reduce_to_min_first(2.0, 0.5, 3.0, 0.5)[1] == "(y,x,a,z)"


def test_guarantee_labels_track_the_reduction():
    v = guarantee_n5plus(ZParams(5, 0.2, 2.0, 0.5, 1.5))
    assert (v.guaranteed_efficient, v.matched_exception, v.reduction_used) == (
        False, "T5(i)", "identity")
    v = guarantee_n5plus(ZParams(5, 2.0, 0.2, 1.5, 0.5))
    assert v.matched_exception == "T6(i)" and v.reduction_used == "(y,x,a,z)"
    v = guarantee_n5plus(ZParams(5, 0.5, 1.5, 0.2, 2.0))
    assert v.matched_exception == "T7(i)" and v.reduction_used == "(z,a,x,y)"
    v = guarantee_n5plus(ZParams(5, 1.5, 0.5, 2.0, 0.2))
    assert v.matched_exception == "T8(i)" and v.reduction_used == "(a,z,y,x)"


def test_guarantee_clause_labels():
    # clause (ii): x < y < a < z with a > 1
    v = guarantee_n5plus(ZParams(5, 0.2, 0.5, 4.0, 2.0))
    assert v.matched_exception == "T5(ii)"
    # clause (iii): x <= a < 1 < min(y, z)
    v = guarantee_n5plus(ZParams(5, 0.25, 2.0, 2.0, 0.5))
    assert v.matched_exception == "T5(iii)"
    # all-ones point is guaranteed
    v = guarantee_n5plus(ZParams(5, 1.0, 1.0, 1.0, 1.0))
    assert v.guaranteed_efficient and v.matched_exception is None


def test_guarantee_requires_n5():
    with pytest.raises(ValueError, match="n >= 5"):
        guarantee_n5plus(ZParams(4, 1.0, 1.0, 1.0, 1.0))


def test_guarantee_invariant_under_symmetries():
    rng = np.random.default_rng(321)
    for _ in range(200):
        x, y, z, a = np.exp(rng.uniform(-2.0, 2.0, size=4))
        base = guarantee_n5plus(ZParams(5, x, y, z, a)).guaranteed_efficient
        for f in SYMMETRY_IMAGES.values():
            img = guarantee_n5plus(ZParams(5, *f(x, y, z, a)))
            assert img.guaranteed_efficient == base


@settings(max_examples=60, deadline=None)
@given(param_value, param_value, param_value, param_value,
       st.integers(min_value=5, max_value=7))
def test_guaranteed_points_are_efficient(x, y, z, a, n):
    p = ZParams(n, x, y, z, a)
    if guarantee_n5plus(p).guaranteed_efficient:
        A = z_matrix(p)
        G = build_digraph(A, perron(A).w)
        assert strongly_connected(G)[0]


def test_guarantee_a1_clauses():
    v = guarantee_a1(5, 3.0, 4.0, 2.0)
    assert not v.guaranteed_efficient and v.matched_exception == "A1(i)"
    assert guarantee_a1(5, 1.0, 1.0, 1.0).guaranteed_efficient
    assert guarantee_a1(6, 3.0, 2.0, 0.5).matched_exception == "A1(ii)"
    assert guarantee_a1(5, 0.5, 0.8, 0.3).matched_exception == "A1(iii)"
    assert guarantee_a1(5, 0.5, 2.0, 0.8).matched_exception == "A1(iv)"
    with pytest.raises(ValueError, match="n >= 5"):
        guarantee_a1(4, 1.0, 1.0, 1.0)


def test_guarantee_a1_matches_reduction_on_slice():
    for x, y, z in itertools.product((0.25, 0.5, 1.0, 2.0, 4.0), repeat=3):
        lhs = guarantee_a1(5, x, y, z).guaranteed_efficient
        rhs = guarantee_n5plus(ZParams(5, x, y, z, 1.0)).guaranteed_efficient
        assert lhs == rhs, (x, y, z)


def test_guarantee_n4_forms_and_values():
    assert guarantee_n4(1.0, 1.0, 1.0)
    # interleaving pattern min{1,x} < min{y,z} < max{1,x} < max{y,z}
    assert not guarantee_n4(3.0, 2.0, 4.0)
    assert not guarantee_n4(3.0, 2.0, 4.0, form="region_complement")
    with pytest.raises(ValueError, match="unknown form"):
        guarantee_n4(1.0, 1.0, 1.0, form="other")


@settings(max_examples=100, deadline=None)
@given(param_value, param_value, param_value)
def test_guarantee_n4_forms_agree(x, y, z):
    assert guarantee_n4(x, y, z, "six_cases") == guarantee_n4(
        x, y, z, "region_complement")


def test_guarantee_n4_matches_computed_efficiency():
    for x, y, z in itertools.product(SMALL_AXES, repeat=3):
        if guarantee_n4(x, y, z):
            A = z_matrix(ZParams(4, x, y, z, 1.0))
            assert strongly_connected(build_digraph(A, perron(A).w))[0], (x, y, z)


def test_identity_residuals_small_on_grid():
    for n in (5, 6):
        for p in small_grid(n):
            res = eigen_identity_residuals(p)
            assert res.rows_max <= 1e-9 * res.r
            assert res.identities_max <= 1e-9 * res.r, p
            assert res.middle_deviation_max == 0.0
    assert len(eigen_identity_residuals(ZParams(5, 0.3, 2.0, 0.7, 1.4)).identities) == 10


def test_predicted_edges_subset_of_computed():
    for n in (5, 6):
        for p in small_grid(n):
            A = z_matrix(p)
            G = build_digraph(A, perron(A).w)
            assert predicted_edges(p) <= G.edges, p


def test_predicted_edges_known_point():
    # x = y = z = a = 1 satisfies every non-strict relation at once
    p = ZParams(5, 1.0, 1.0, 1.0, 1.0)
    E = predicted_edges(p)
    assert (1, 2) in E and (2, 1) in E
    assert (1, 3) in E and (3, 1) in E
    assert (4, 5) in E and (5, 4) in E
    assert len(E) == 20


def test_forbidden_reverse_edges_empty_on_grid():
    for p in small_grid(5):
        A = z_matrix(p)
        G = build_digraph(A, perron(A).w)
        assert forbidden_reverse_edges(p, G) == [], p


def test_sink_characterization_agreement_and_vertex():
    # exception clause T5(iii) point: inefficient, middle class is the sink
    sc = evaluate_z(ZParams(5, 0.25, 2.0, 2.0, 0.5))
    assert not sc.report.efficient and sc.sink_present and sc.agrees
    assert sc.sink_vertex == 3
    # guaranteed point: efficient, no sink
    sc = evaluate_z(ZParams(5, 1.0, 1.0, 1.0, 1.0))
    assert sc.report.efficient and not sc.sink_present and sc.agrees and sc.sink_vertex is None


def test_quotient_sink_differs_from_literal_sinks_for_n6():
    # with two middle vertices the class is mutually tied, so no literal
    # vertex sink exists even when the contracted class is a sink
    p = ZParams(6, 0.25, 2.0, 2.0, 0.5)
    A = z_matrix(p)
    G = build_digraph(A, perron(A).w)
    assert not strongly_connected(G)[0]
    assert sinks(G) == ()
    assert middle_quotient_sinks(G, 6) == (3,)
    sc = evaluate_z(p)
    assert sc.sink_present and sc.agrees and sc.sink_vertex == 3


def quotient_sinks_reference(G, n):
    """Loop form: contract the middle class, keep the classes with no out-edge."""

    def rep(v):
        return 3 if 3 <= v <= n - 2 else v

    verts = sorted({rep(v) for v in range(1, n + 1)})
    has_out = {rep(i) for (i, j) in G.edges if rep(i) != rep(j)}
    return tuple(v for v in verts if v not in has_out)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(4, 9), seed=st.integers(0, 2**32 - 1),
       density=st.floats(0.02, 0.6))
def test_middle_quotient_sinks_matches_loop_reference(n, seed, density):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < density
    np.fill_diagonal(adj, False)
    G = EfficiencyDigraph(adj, 1e-9)
    assert middle_quotient_sinks(G, n) == quotient_sinks_reference(G, n)


def test_middle_quotient_sinks_reference_on_grid():
    for n in (5, 6, 7):
        for p in small_grid(n):
            G = evaluate_z(p).report.digraph
            assert middle_quotient_sinks(G, n) == quotient_sinks_reference(G, n), p


def test_evaluate_z_is_read_by_the_point_functions():
    p = ZParams(6, 0.25, 2.0, 2.0, 0.5)
    pt = evaluate_z(p)
    rep = analyze(z_matrix(p))
    assert pt.p == p and pt.report.digraph.n == 6 and pt.r == pt.report.perron.r
    assert pt.r == rep.perron.r and np.array_equal(pt.report.w, rep.w)
    assert np.array_equal(pt.report.digraph.adj, rep.digraph.adj)
    assert np.array_equal(pt.report.certificate, rep.certificate)
    assert not pt.report.efficient and pt.quotient_sinks == (3,) and pt.sink_vertex == 3
    assert pt.identities == eigen_identity_residuals(p)
    assert pt.table_violations == evaluate_z(p).table_violations == []
    sc = evaluate_z(p)
    assert (sc.report.efficient, sc.sink_present, sc.sink_vertex, sc.agrees, sc.r) == (
        pt.report.efficient, pt.sink_present, pt.sink_vertex, pt.agrees, pt.r)
    with pytest.raises(ValueError, match="n >= 5"):
        evaluate_z(ZParams(4, 1.0, 1.0, 1.0, 1.0))


def test_sink_characterization_grid_agreement():
    for n in (5, 6):
        for p in small_grid(n):
            assert evaluate_z(p).agrees, p


def test_catalog_covers_41_structures():
    assert len(CYCLE_CATALOG) == 41
    by_group = {}
    for row in CYCLE_CATALOG:
        by_group[row.group] = by_group.get(row.group, 0) + 1
    assert by_group == {1: 7, 2: 4, 3: 2, 4: 2, 5: 8, 6: 8, 7: 10}


def test_table_oracle_known_match():
    matches = table_oracle(ZParams(5, 0.2, 2.0, 0.5, 1.5))
    assert [m.row.relation for m in matches] == ["x < z < 1 <= a < y"]
    m = matches[0]
    assert m.cycles == ((1, 5, 3, 4),)
    assert m.kind == "sink" and m.vertex == 2


def test_table_oracle_realizes_vertices_for_larger_n():
    matches = table_oracle(ZParams(7, 0.2, 2.0, 0.5, 1.5))
    assert matches[0].cycles == ((1, 7, 3, 6),)


def test_table_claims_hold_on_grid():
    for n in (5, 6):
        for p in small_grid(n):
            assert evaluate_z(p).table_violations == [], p


def test_table_oracle_gaps_and_overlaps():
    # the catalog does not tile the parameter space
    assert table_oracle(ZParams(5, 0.25, 0.25, 2.0, 1.25)) == []
    # at the all-ones point every non-strict relation holds at once
    assert len(table_oracle(ZParams(5, 1.0, 1.0, 1.0, 1.0))) == 15


def z_matrix_reference(p):
    """Z_n(x,y,z,a) through `make_reciprocal`, as the family defines it."""
    n = p.n
    a = np.ones((n, n))
    a[0, n - 2], a[0, n - 1], a[1, n - 2], a[1, n - 1] = p.y, p.x, p.a, p.z
    return make_reciprocal(a, mode="symmetrize")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=4, max_value=9), param_value, param_value, param_value,
       param_value)
def test_z_matrix_is_the_canonical_family_member(n, x, y, z, a):
    p = ZParams(n, x, y, z, a)
    assert z_matrix(p).a.tobytes() == z_matrix_reference(p).a.tobytes()


def test_evaluate_z_stack_points_equal_one_point_evaluations():
    for n in (5, 6):
        grid = list(small_grid(n))
        points = list(evaluate_z_stack(grid))
        assert [pt.p for pt in points] == grid
        for pt in points:
            one = evaluate_z(pt.p)
            assert pt.report.w.tobytes() == one.report.w.tobytes()
            assert pt.r == one.r and pt.report.perron.iterations == one.report.perron.iterations
            assert np.array_equal(pt.report.digraph.adj, one.report.digraph.adj)
            assert pt.report.efficient == one.report.efficient
            assert pt.quotient_sinks == one.quotient_sinks
    with pytest.raises(ValueError, match="one order"):
        next(evaluate_z_stack([ZParams(5, 1.0, 1.0, 1.0, 1.0), ZParams(6, 1.0, 1.0, 1.0, 1.0)]))
    with pytest.raises(ValueError, match="n >= 5"):
        next(evaluate_z_stack([ZParams(4, 1.0, 1.0, 1.0, 1.0)]))


# --- compiled relations against the written-out predicates -----------------
#
# Each relation string in `zfamily` is compiled into a requirement matrix.
# The predicates below state the same relations as Python comparisons; they
# are the oracles for the compiled form.

CATALOG_REFERENCE = (
    ("x <= 1 <= a <= y,z", lambda x, y, z, a: x <= 1 <= a <= min(y, z)),
    ("x <= z <= 1 <= y <= a", lambda x, y, z, a: x <= z <= 1 <= y <= a),
    ("1 <= x <= y,z <= a", lambda x, y, z, a: 1 <= x <= min(y, z) and max(y, z) <= a),
    ("x <= a <= y <= 1 <= z", lambda x, y, z, a: x <= a <= y <= 1 <= z),
    ("x <= a <= z <= 1 <= y", lambda x, y, z, a: x <= a <= z <= 1 <= y),
    ("x <= y <= 1 <= z <= a", lambda x, y, z, a: x <= y <= 1 <= z <= a),
    ("x <= y,z <= a <= 1", lambda x, y, z, a: x <= min(y, z) and max(y, z) <= a <= 1),
    ("x <= 1 <= y,z <= a", lambda x, y, z, a: x <= 1 <= min(y, z) and max(y, z) <= a),
    ("x <= a <= y,z <= 1", lambda x, y, z, a: x <= a <= min(y, z) and max(y, z) <= 1),
    ("x <= y,z <= 1 <= a", lambda x, y, z, a: x <= min(y, z) and max(y, z) <= 1 <= a),
    ("1 <= x <= a <= y,z", lambda x, y, z, a: 1 <= x <= a <= min(y, z)),
    ("1 <= x <= z <= a <= y", lambda x, y, z, a: 1 <= x <= z <= a <= y),
    ("x <= y <= a <= z <= 1", lambda x, y, z, a: x <= y <= a <= z <= 1),
    ("x <= 1 <= z <= a <= y", lambda x, y, z, a: x <= 1 <= z <= a <= y),
    ("x <= y <= a <= 1 <= z", lambda x, y, z, a: x <= y <= a <= 1 <= z),
    ("z < x < y < a <= 1", lambda x, y, z, a: z < x < y < a <= 1),
    ("x < z < a < y <= 1", lambda x, y, z, a: x < z < a < y <= 1),
    ("y < a < z < x <= 1", lambda x, y, z, a: y < a < z < x <= 1),
    ("a < y < x < z <= 1", lambda x, y, z, a: a < y < x < z <= 1),
    ("1 <= a < z < x < y", lambda x, y, z, a: 1 <= a < z < x < y),
    ("1 <= y < x < z < a", lambda x, y, z, a: 1 <= y < x < z < a),
    ("1 <= z < a < y < x", lambda x, y, z, a: 1 <= z < a < y < x),
    ("1 <= x < y < a < z", lambda x, y, z, a: 1 <= x < y < a < z),
    ("x < z < a < 1 <= y", lambda x, y, z, a: x < z < a < 1 <= y),
    ("a < 1 <= z < x < y", lambda x, y, z, a: a < 1 <= z < x < y),
    ("z < x < y <= 1 < a", lambda x, y, z, a: z < x < y <= 1 < a),
    ("y < 1 <= x < z < a", lambda x, y, z, a: y < 1 <= x < z < a),
    ("y < a < z < 1 <= x", lambda x, y, z, a: y < a < z < 1 <= x),
    ("z < 1 <= a < y < x", lambda x, y, z, a: z < 1 <= a < y < x),
    ("a < y < x < 1 <= z", lambda x, y, z, a: a < y < x < 1 <= z),
    ("x < 1 <= y < a < z", lambda x, y, z, a: x < 1 <= y < a < z),
    ("x < z < 1 <= a < y", lambda x, y, z, a: x < z < 1 <= a < y),
    ("y < a < 1 <= z < x", lambda x, y, z, a: y < a < 1 <= z < x),
    ("z < a <= 1 < y < x", lambda x, y, z, a: z < a <= 1 < y < x),
    ("x < y <= 1 < a < z", lambda x, y, z, a: x < y <= 1 < a < z),
    ("y,z < 1 < a,x", lambda x, y, z, a: max(y, z) < 1 < min(a, x)),
    ("x,a < 1 < z,y", lambda x, y, z, a: max(x, a) < 1 < min(z, y)),
    ("y < x <= 1 < z < a", lambda x, y, z, a: y < x <= 1 < z < a),
    ("a < z <= 1 < x < y", lambda x, y, z, a: a < z <= 1 < x < y),
    ("a < y < 1 <= x < z", lambda x, y, z, a: a < y < 1 <= x < z),
    ("z < x < 1 <= y < a", lambda x, y, z, a: z < x < 1 <= y < a),
)


def min_first_exception_reference(x, y, z, a):
    """Exception clauses for a point with x <= min{y, z, a}."""
    if x < z < a < y and z < 1:
        return "(i)"
    if x < y < a < z and 1 < a:
        return "(ii)"
    if x <= a < 1 < min(y, z):
        return "(iii)"
    return None


def guarantee_n5plus_reference(p):
    rep, reduction = reduce_to_min_first(*p.xyza)
    clause = min_first_exception_reference(*rep)
    variant = dict(zip(SYMMETRY_IMAGES, ("T5", "T6", "T7", "T8")))[reduction]
    return RegionVerdict(clause is None, clause and variant + clause, reduction)


def guarantee_a1_reference(x, y, z):
    clauses = (
        ("A1(i)", 1 < z < x < y),
        ("A1(ii)", z < 1 < y < x),
        ("A1(iii)", z < x < y < 1),
        ("A1(iv)", x < z < 1 < y),
    )
    for label, hit in clauses:
        if hit:
            return RegionVerdict(False, label, "identity")
    return RegionVerdict(True, None, "identity")


def predicted_edges_reference(p):
    """The twenty edge conditions, written out one by one."""
    n, (x, y, z, a) = p.n, p.xyza
    mids = range(3, n - 1)
    E = set()
    if a <= y and z <= x:
        E.add((1, 2))
    if y <= min(1, a, x):
        E.add((1, n - 1))
    if x <= min(1, y, z):
        E.add((1, n))
    if a <= min(1, y, z):
        E.add((2, n - 1))
    if z <= min(1, x, a):
        E.add((2, n))
    if y <= x and a <= z:
        E.add((n - 1, n))
    if 1 <= min(x, y):
        E.update((1, i) for i in mids)
    if 1 <= min(a, z):
        E.update((2, i) for i in mids)
    if max(y, a) <= 1:
        E.update((n - 1, i) for i in mids)
    if max(x, z) <= 1:
        E.update((n, i) for i in mids)
    if y <= a and x <= z:
        E.add((2, 1))
    if max(1, a, x) <= y:
        E.add((n - 1, 1))
    if max(1, y, z) <= x:
        E.add((n, 1))
    if max(1, y, z) <= a:
        E.add((n - 1, 2))
    if max(1, a, x) <= z:
        E.add((n, 2))
    if x <= y and z <= a:
        E.add((n, n - 1))
    if max(x, y) <= 1:
        E.update((i, 1) for i in mids)
    if max(a, z) <= 1:
        E.update((i, 2) for i in mids)
    if 1 <= min(a, y):
        E.update((i, n - 1) for i in mids)
    if 1 <= min(x, z):
        E.update((i, n) for i in mids)
    return E


def forbidden_reverse_edges_reference(p, G):
    n, (x, y, z, a) = p.n, p.xyza
    checks = (
        ((3, 2), max(a, z) <= 1 and a != z, (2, 3)),
        ((3, 1), max(x, y) <= 1 and x != y, (1, 3)),
        ((3, n), min(x, z) >= 1 and x != z, (n, 3)),
        ((3, n - 1), min(y, a) >= 1 and a != y, (n - 1, 3)),
    )
    violations = []
    for fwd, cond, rev in checks:
        if cond and G.has_edge(*fwd) and G.has_edge(*rev):
            violations.append(f"edge {fwd} with relation forbids {rev}")
    return violations


def n4_six_cases_reference(x, y, z):
    return (
        (y <= x <= z and y <= 1 <= z)
        or (y <= x and y <= 1 and z <= 1 and z <= x)
        or (1 <= y <= x and 1 <= z <= x)
        or (z <= x <= y and 1 <= y and z <= 1)
        or (x <= y and 1 <= y and 1 <= z and x <= z)
        or (x <= y <= 1 and x <= z <= 1)
    )


def complete_digraph(n):
    return EfficiencyDigraph(~np.eye(n, dtype=bool), 1e-9)


def assert_relations_match_reference(p):
    x, y, z, a = p.xyza
    assert [m.row.relation for m in table_oracle(p)] == [
        rel for rel, holds in CATALOG_REFERENCE if holds(x, y, z, a)], p
    assert predicted_edges(p) == predicted_edges_reference(p), p
    assert guarantee_n5plus(p) == guarantee_n5plus_reference(p), p
    assert guarantee_a1(p.n, x, y, z) == guarantee_a1_reference(x, y, z), p
    # every edge present, so each clause whose relation holds is reported
    G = complete_digraph(p.n)
    assert forbidden_reverse_edges(p, G) == forbidden_reverse_edges_reference(p, G), p
    assert guarantee_n4(x, y, z) == n4_six_cases_reference(x, y, z), p


def test_relation_oracles_are_not_vacuous():
    p = ZParams(5, 0.5, 0.8, 0.25, 0.8)  # max(a, z) <= 1, a != z, x != y
    assert len(forbidden_reverse_edges(p, complete_digraph(5))) == 2
    assert forbidden_reverse_edges(p, evaluate_z(p).report.digraph) == []
    # every rule holds: 12 edges among 1, 2, 7, 8 and 8 rules to or from 4 middle vertices
    assert len(predicted_edges(ZParams(8, 1.0, 1.0, 1.0, 1.0))) == 12 + 8 * 4


def test_relations_reject_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="y must be positive and finite"):
        guarantee_a1(5, 0.5, nan, 2.0)
    with pytest.raises(ValueError, match="x must be positive and finite"):
        guarantee_n4(nan, 1.0, 1.0)


@pytest.mark.parametrize("bad", (-1.0, 0.0, math.inf, math.nan))
@pytest.mark.parametrize("slot", range(3))
def test_guarantees_reject_parameters_that_zparams_rejects(bad, slot):
    xyz = [0.5, 2.0, 1.5]
    xyz[slot] = bad
    name = "xyz"[slot]
    with pytest.raises(ValueError, match="positive and finite"):
        ZParams(5, *xyz, 1.0)
    for form in ("six_cases", "region_complement"):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
            guarantee_n4(*xyz, form)
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        guarantee_a1(5, *xyz)


def test_catalog_relations_are_the_reference_relations():
    assert [row.relation for row in CYCLE_CATALOG] == [rel for rel, _ in CATALOG_REFERENCE]


ORACLE_AXES = (0.25, 0.5, 0.8, 1.0, 1.25, 2.0, 4.0)


@pytest.mark.parametrize("n", (5, 7, 8))
def test_compiled_relations_match_reference_on_tied_grid(n):
    # the axes include 1 and repeat values across coordinates, so every
    # boundary of every relation is hit with ties
    for xyza in itertools.product(ORACLE_AXES, repeat=4):
        assert_relations_match_reference(ZParams(n, *xyza))


log_uniform = st.floats(min_value=-3.0, max_value=3.0).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=5, max_value=9), log_uniform, log_uniform, log_uniform,
       log_uniform)
def test_compiled_relations_match_reference_log_uniform(n, x, y, z, a):
    assert_relations_match_reference(ZParams(n, x, y, z, a))
