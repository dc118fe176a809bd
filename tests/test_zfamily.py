import itertools
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    cell_row_reference,
    lp_gain,
    reduce_to_min_first_reference,
    same_report,
    table_oracle,
    table_violations,
)
from recipeff import harness, zfamily
from recipeff.core import make_reciprocal, perron, perron_stack
from recipeff.digraph import (
    DigraphStack,
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
    ZStack,
    _claims,
    _relation,
    eigen_identity_residuals,
    forbidden_reverse_edges,
    guarantee_a1,
    guarantee_n4,
    guarantee_n5plus,
    predicted_edges,
    z_matrix,
    z_stack,
)

param_value = st.floats(min_value=1.0 / 9.0, max_value=9.0)
log_uniform = st.floats(min_value=-3.0, max_value=3.0).map(math.exp)
SMALL_AXES = (0.25, 1.0, 4.0)


def small_grid(n):
    for xyza in itertools.product(SMALL_AXES, repeat=4):
        yield ZParams(n, *xyza)


def z_point(p):
    """p's one-point `ZStack`, read at row 0."""
    return ZStack(p.n, [p.xyza])


def test_zparams_validation():
    with pytest.raises(ValueError, match="n must be"):
        ZParams(3, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        ZParams(5, 1.0, -2.0, 1.0, 1.0)


@pytest.mark.parametrize("n", [5.5, 6.0, np.float64(5.0), "5", None])
def test_an_order_that_is_not_an_integer_is_rejected(n):
    # 5.5 once gave a quotient with middle class of size 1.5
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        ZParams(n, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        zfamily.ZStack(n, [(1.0, 1.0, 1.0, 1.0)])
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        harness.grid_sweep(n)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        guarantee_a1(n, 1.0, 2.0, 0.5)
    assert zfamily.ZStack(np.int64(6), [(1.0, 1.0, 1.0, 1.0)]).n == 6
    assert guarantee_a1(np.int64(6), 1.0, 2.0, 0.5).guaranteed_efficient


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
    # `reduction_used` names the image that puts the first minimal coordinate
    # first, so ties take the first symmetry in the fixed order identity,
    # (y,x,a,z), (z,a,x,y), (a,z,y,x)
    assert guarantee_n5plus(ZParams(5, 1.0, 1.0, 1.0, 1.0)).reduction_used == "identity"
    assert guarantee_n5plus(ZParams(5, 2.0, 0.5, 3.0, 0.5)).reduction_used == "(y,x,a,z)"
    # the loop reference, on axes that repeat values, so every tie of the minimum occurs
    for xyza in itertools.product((0.25, 0.5, 1.0, 4.0), repeat=4):
        assert guarantee_n5plus(ZParams(5, *xyza)).reduction_used == (
            reduce_to_min_first_reference(*xyza)[1]), xyza


# the permutation of the quotient vertices (1, 2, middle, n-1, n) that
# realizes each image, as `test_symmetry_images_are_similarities` pins it
QUOTIENT_PERMUTATIONS = {"identity": [0, 1, 2, 3, 4], "(y,x,a,z)": [0, 1, 2, 4, 3],
                         "(z,a,x,y)": [1, 0, 2, 3, 4], "(a,z,y,x)": [1, 0, 2, 4, 3]}
QUOTIENT_CODES = (1, 2, 3, -2, -1)  # the vertex codes of the quotient vertices


def cell_point(cell):
    """The point (x, y, z, a) at levels 2**(rank - rank of 1) of a dense-rank cell of (1, x, y, z, a)."""
    return [2.0 ** (r - cell[0]) for r in cell[1:]]


def image_cell(name, cell):
    """The dense-rank cell of the image `name` of the points of `cell`."""
    return (cell[0], *SYMMETRY_IMAGES[name](*cell[1:]))


def test_images_translate_relations_and_vertices_as_the_similarities_do():
    # each image's text table maps a relation to one that holds in a cell's
    # image exactly where the relation holds in the cell, on every cell and
    # every catalog relation; its vertex map is the similarity's permutation
    cells = list(zfamily.order_cells())
    texts = [row.relation for row in CYCLE_CATALOG]
    hits = zfamily._compile(*enumerate(texts)).hits
    for name, (table, vertex) in zip(SYMMETRY_IMAGES, zfamily._images()):
        assert [QUOTIENT_CODES.index(vertex[c]) for c in QUOTIENT_CODES] == (
            QUOTIENT_PERMUTATIONS[name])
        rows = zfamily._cell_rows([cell_point(image_cell(name, c)) for c in cells])
        moved = zfamily._compile(*enumerate(t.translate(table) for t in texts)).hits
        assert np.array_equal(moved[rows], hits), name


def cell_text(cell):
    """A dense-rank cell of (1, x, y, z, a) as its chain, such as "z < x < 1 = y < a"."""
    order = sorted(range(5), key=lambda i: (cell[i], i))
    return "1xyza"[order[0]] + "".join(f" {'=' if cell[i] == cell[j] else '<'} {'1xyza'[j]}"
                                       for i, j in zip(order, order[1:]))


# catalog row 25, "z < x < y <= 1 < a", puts its boundary at y = 1, where the
# images of its orbit mates (rows 23, 27 and 29) read "z < x < y < 1 <= a"; so
# on these two tie cells and their images, sink_rows does not follow the images
ROW_25_TIES = ("z < x < 1 = y < a", "z < x < y < 1 = a")


def test_cell_tables_follow_the_symmetry_images():
    # each cell's image cell has the cell's predicted, forbidden and guaranteed
    # rows with the quotient vertices permuted, on all 541 cells; sink_rows
    # too except on row 25's ties; claimed does not, since catalog groups 1-4
    # are stated only where x is minimal
    cells = list(zfamily.order_cells())
    t = zfamily.cell_tables(np.array([cell_point(c) for c in cells]))
    for name, perm in QUOTIENT_PERMUTATIONS.items():
        image = zfamily.cell_tables(np.array([cell_point(image_cell(name, c)) for c in cells]))
        for key in ("predicted", "forbidden"):
            assert np.array_equal(image[key], t[key][:, perm][:, :, perm]), (name, key)
        assert np.array_equal(image["guaranteed"], t["guaranteed"]), name
        ties = {*ROW_25_TIES, *(cell_text(image_cell(name, c)) for c in cells
                                if cell_text(c) in ROW_25_TIES)}
        asymmetric = ~(image["sink_rows"] == t["sink_rows"][:, perm]).all(axis=1)
        assert {cell_text(cells[i]) for i in np.flatnonzero(asymmetric)} == (
            set() if name == "identity" else ties), name
        claimed = ~(image["claimed"] == t["claimed"][:, perm][:, :, perm]).all(axis=(1, 2))
        assert claimed.sum() == {"identity": 0, "(y,x,a,z)": 282, "(z,a,x,y)": 286,
                                 "(a,z,y,x)": 266}[name]


@pytest.mark.parametrize("n", (5, 6, 7, 50))
def test_row_25_claims_hold_on_both_tie_boundaries(n):
    # row 25's cycle and extra edges hold at y = 1, where it puts its
    # boundary, and at a = 1, where its orbit mates' images put theirs
    rng = np.random.default_rng(25 + n)
    low = np.sort(np.exp(rng.uniform(-2.0, 0.0, (2000, 3))), axis=1)  # z < x < y < 1
    high = np.exp(rng.uniform(0.0, 2.0, 2000))
    on_y = np.column_stack([low[:, 1], np.ones(2000), low[:, 0], high])  # z < x < 1 = y < a
    on_a = np.column_stack([low[:, 1], low[:, 2], low[:, 0], np.ones(2000)])  # z < x < y < 1 = a
    row = CYCLE_CATALOG[25]
    assert row.relation == "z < x < y <= 1 < a"
    edges = [(QUOTIENT_CODES.index(u), QUOTIENT_CODES.index(v)) for _, (u, v) in _claims(row)]
    for xyza in (on_y, on_a):
        s = ZStack(n, xyza)
        assert all(s.adj[:, u, v].all() for u, v in edges)


@pytest.mark.parametrize("n", (5, 8))
def test_zstack_verdicts_follow_the_symmetry_images(n):
    # each image of a point has its verdict, and its sink is the point's
    # sink moved by the image's vertex permutation; points within 1e-9 of a
    # tie in log space are skipped
    xyza = np.exp(np.random.default_rng(800 + n).uniform(-2.0, 2.0, (1000, 4)))
    s = ZStack(n, xyza)
    margin = np.abs(np.log(s.w[:, :, None] / s.w[:, None, :]) - np.log(s.a))
    margin[:, range(5), range(5)] = np.inf
    clear = margin.min(axis=(1, 2)) >= 1e-9
    assert clear.sum() >= 990 and (~s.efficient[clear]).sum() >= 20
    vertices = (1, 2, 3, n - 1, n)
    for name, perm in QUOTIENT_PERMUTATIONS.items():
        image = ZStack(n, [SYMMETRY_IMAGES[name](*p) for p in xyza.tolist()])
        assert np.array_equal(image.efficient[clear], s.efficient[clear]), name
        moved = [None if v is None else vertices[perm[vertices.index(v)]] for v in s.sink_vertex]
        assert image.sink_vertex[clear].tolist() == np.array(moved, dtype=object)[clear].tolist()


# the vertex reversal i -> n+1-i on the quotient vertices, which maps
# Z_n(x, y, z, a) to Z_n(1/x, 1/z, 1/y, 1/a)
REVERSAL = [4, 3, 2, 1, 0]


def reversed_cell(cell):
    """The dense-rank cell of the points (1/x, 1/z, 1/y, 1/a) of a cell of (1, x, y, z, a)."""
    return tuple(max(cell) - cell[i] for i in (0, 1, 3, 2, 4))


def test_reversal_is_a_similarity():
    for n in (5, 8):
        p = ZParams(n, 0.25, 2.0, 0.5, 4.0)  # powers of two, so reciprocals are exact
        reverse = ZParams(n, 1 / p.x, 1 / p.z, 1 / p.y, 1 / p.a)
        assert np.array_equal(z_matrix(p).a[::-1, ::-1], z_matrix(reverse).a)


def test_reversal_reads_each_chain_backwards_with_y_and_z_swapped():
    assert zfamily._reversed("1 < z < x < y") == "z < x < y < 1"  # A1(i) to A1(iii)
    assert zfamily._reversed("z < 1 < y < x") == "x < z < 1 < y"  # A1(ii) to A1(iv)
    assert zfamily._reversed("a <= y; z <= x") == "z <= a; x <= y"
    assert zfamily._reversed("y,z <= x,1") == "x,1 <= z,y"


def test_orbit_maps_relations_and_vertices_as_the_eight_similarities_do():
    # `_orbit` yields, for each image in `SYMMETRY_IMAGES` order, a rule's
    # image and then its reversal's; each text holds in the image of a cell
    # exactly where the relation holds in the cell, on every cell and every
    # catalog relation, and each vertex map is the similarity's permutation
    cells = list(zfamily.order_cells())
    texts = [row.relation for row in CYCLE_CATALOG]
    hits = zfamily._compile(*enumerate(texts)).hits
    orbits = [list(zfamily._orbit([(QUOTIENT_CODES, t)])) for t in texts]
    for k, (name, reverse) in enumerate(itertools.product(SYMMETRY_IMAGES, (False, True))):
        perm = QUOTIENT_PERMUTATIONS[name]
        codes = orbits[0][k][0]
        assert [QUOTIENT_CODES.index(c) for c in codes] == (
            [perm[i] for i in REVERSAL] if reverse else perm), (name, reverse)
        rows = zfamily._cell_rows([cell_point(image_cell(name, reversed_cell(c) if reverse else c))
                                   for c in cells])
        moved = zfamily._compile(*enumerate(orbit[k][1] for orbit in orbits)).hits
        assert np.array_equal(moved[rows], hits), (name, reverse)


def test_cell_tables_follow_the_reversal():
    # the reversed cell has the cell's predicted, forbidden and guaranteed rows
    # with the quotient vertices reversed, on all 541 cells.  sink_rows does
    # not on 12 cells, each with a tie at 1: group 6 puts its boundaries at
    # "< 1 <=", so a row and its reversal's orbit mate close opposite ends, as
    # row 25 does for the images.  claimed does not on 313, since catalog
    # groups 1-4 are stated only where x is minimal
    cells = list(zfamily.order_cells())
    t = zfamily.cell_tables(np.array([cell_point(c) for c in cells]))
    image = zfamily.cell_tables(np.array([cell_point(reversed_cell(c)) for c in cells]))
    for key in ("predicted", "forbidden"):
        assert np.array_equal(image[key], t[key][:, REVERSAL][:, :, REVERSAL]), key
    assert np.array_equal(image["guaranteed"], t["guaranteed"])
    asymmetric = np.flatnonzero(~(image["sink_rows"] == t["sink_rows"][:, REVERSAL]).all(axis=1))
    assert len(asymmetric) == 12 and all("1 =" in cell_text(cells[i]) for i in asymmetric)
    claimed = ~(image["claimed"] == t["claimed"][:, REVERSAL][:, :, REVERSAL]).all(axis=(1, 2))
    assert claimed.sum() == 313


@pytest.mark.parametrize("n", (5, 8))
def test_zstack_verdicts_follow_the_reversal(n):
    # the points of `test_zstack_verdicts_follow_the_symmetry_images`: each
    # reversed point has the point's verdict, and its sink is the point's sink
    # moved by i -> n+1-i, the middle class staying
    xyza = np.exp(np.random.default_rng(800 + n).uniform(-2.0, 2.0, (1000, 4)))
    s, image = ZStack(n, xyza), ZStack(n, 1 / xyza[:, [0, 2, 1, 3]])
    assert (~s.efficient).sum() == {5: 55, 8: 43}[n]
    assert np.array_equal(image.efficient, s.efficient)
    vertices = (1, 2, 3, n - 1, n)
    moved = [None if v is None else vertices[REVERSAL[vertices.index(v)]] for v in s.sink_vertex]
    assert image.sink_vertex.tolist() == moved


@pytest.mark.parametrize("group", (5, 7))
def test_catalog_sink_groups_are_closed_under_the_eight_symmetries(group):
    # each image of a row, its relation, sink and claimed edges moved
    # together, is a row of the same group
    def key(relation, vertex, edges):
        return _relation(relation).tobytes(), vertex, frozenset(edges)

    rows = [m for m in CYCLE_CATALOG if m.group == group]
    stated = {key(m.relation, m.vertex, [e for _, e in _claims(m)]) for m in rows}
    for m in rows:
        codes = (m.vertex, *(c for _, edge in _claims(m) for c in edge))
        for (vertex, *ends), text in zfamily._orbit([(codes, m.relation)]):
            assert key(text, vertex, zip(ends[::2], ends[1::2])) in stated, (m, text)


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
    with pytest.raises(ValueError, match=r"^requires n >= 5$"):
        predicted_edges(ZParams(4, 1.0, 1.0, 1.0, 1.0))


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


def test_region_verdict_agrees_with_the_linear_program():
    # ZStack's verdict on its 5 x 5 quotient against the LP of `lp_gain` on the
    # lifted order-n pair, which shares no code with the digraph: random
    # points at n = 5..12 and a few up to n = 60, and the grid points outside
    # the region guarantee, which hold its inefficient ones.  Pairs inside the
    # middle class tie exactly; a point with another pair within 1e-6 of a tie
    # in log space is skipped, so that an LP tolerance never decides a verdict
    rng = np.random.default_rng(29)
    stacks = [ZStack(n, np.exp(rng.uniform(-2.0, 2.0, (100 if n < 13 else 10, 4))))
              for n in (*range(5, 13), 20, 33, 47, 60)]
    stacks += [ZStack(n, s.xyza[~s.guaranteed])
               for n, s in ((n, ZStack(n, harness._GRID)) for n in (5, 6, 7, 9, 12))]
    found = {True: 0, False: 0}
    for s in stacks:
        middle = np.zeros(s.n, dtype=bool)
        middle[2:-2] = True
        tied = (middle[:, None] & middle) | np.eye(s.n, dtype=bool)
        for p, a, w, efficient in zip(s.xyza.tolist(), *s.lift(slice(None)),
                                      s.efficient.tolist()):
            if np.abs(np.log(w[:, None] / w) - np.log(a))[~tied].min() <= 1e-6:
                continue
            gain = lp_gain(a, w)
            assert (gain < 5e-7) == efficient, (s.n, p, gain)
            found[efficient] += 1
    assert sum(found.values()) >= 1000 and min(found.values()) >= 100, found


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
            assert res.middle_deviation_max <= 1e-10 * ZStack(p.n, [p.xyza]).w[0, 2], p
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
    sc = z_point(ZParams(5, 0.25, 2.0, 2.0, 0.5))
    assert not sc.report(0).efficient and sc.sink_present[0] and sc.agrees[0]
    assert sc.sink_vertex[0] == 3
    # guaranteed point: efficient, no sink
    sc = z_point(ZParams(5, 1.0, 1.0, 1.0, 1.0))
    assert sc.report(0).efficient and not sc.sink_present[0] and sc.agrees[0]
    assert sc.sink_vertex[0] is None


def test_quotient_sink_differs_from_literal_sinks_for_n6():
    # with two middle vertices the class is mutually tied, so no literal
    # vertex sink exists even when the contracted class is a sink
    p = ZParams(6, 0.25, 2.0, 2.0, 0.5)
    A = z_matrix(p)
    G = build_digraph(A, perron(A).w)
    assert not strongly_connected(G)[0]
    assert sinks(G) == ()
    assert quotient_sinks_reference(G, 6) == (3,)
    sc = z_point(p)
    assert sc.sink_present[0] and sc.agrees[0] and sc.sink_vertex[0] == 3


def quotient_sink_vertices(row, n):
    """The vertices (1, 2, 3 for the middle class, n-1, n) of a `ZStack.sinks` row."""
    return tuple(v for v, sink in zip((1, 2, 3, n - 1, n), row.tolist()) if sink)


def quotient_sinks_reference(G, n):
    """Loop form: contract the middle class, keep the classes with no out-edge."""

    def rep(v):
        return 3 if 3 <= v <= n - 2 else v

    verts = sorted({rep(v) for v in range(1, n + 1)})
    has_out = {rep(i) for (i, j) in G.edges if rep(i) != rep(j)}
    return tuple(v for v in verts if v not in has_out)


def test_middle_quotient_sinks_reference_on_grid():
    for n in (5, 6, 7):
        ps = list(small_grid(n))
        s = ZStack(n, [p.xyza for p in ps])
        for i, p in enumerate(ps):
            got = quotient_sink_vertices(s.sinks[i], n)
            assert got == quotient_sinks_reference(s.report(i).digraph, n), p


def test_sink_characterization_grid_agreement():
    for n in (5, 6):
        for p in small_grid(n):
            assert z_point(p).agrees[0], p


def test_catalog_covers_41_structures():
    assert len(CYCLE_CATALOG) == 41
    by_group = {}
    for row in CYCLE_CATALOG:
        by_group[row.group] = by_group.get(row.group, 0) + 1
    assert by_group == {1: 7, 2: 4, 3: 2, 4: 2, 5: 8, 6: 8, 7: 10}


def test_table_oracle_known_match():
    matches = table_oracle(ZParams(5, 0.2, 2.0, 0.5, 1.5))
    assert [m.relation for m in matches] == ["x < z < 1 <= a < y"]
    m = matches[0]
    assert m.cycles == ((1, 5, 3, 4),)
    assert m.kind == "sink" and m.vertex == 2 and m.group == 7


def test_table_oracle_realizes_vertices_for_larger_n():
    matches = table_oracle(ZParams(7, 0.2, 2.0, 0.5, 1.5))
    assert matches[0].cycles == ((1, 7, 3, 6),)


def test_table_claims_hold_on_grid():
    for n in (5, 6):
        ps = list(small_grid(n))
        s = ZStack(n, [p.xyza for p in ps])
        for i, p in enumerate(ps):
            sinks = quotient_sink_vertices(s.sinks[i], n)
            assert table_violations(p, s.report(i).digraph, s.efficient[i], sinks) == [], p


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


def members(n):
    """The quotient vertex (0..4 for 1, 2, middle, n-1, n) of each vertex of Z_n."""
    return [0, 1, *[2] * (n - 4), 3, 4]


def lifted_adj(q, n):
    """A 5-vertex quotient digraph at order n, the middle class a tied clique."""
    q = q.copy()
    q[2, 2] = True
    adj = q[members(n)][:, members(n)]
    adj[range(n), range(n)] = False
    return adj


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=5, max_value=12).flatmap(lambda n: st.lists(
    st.tuples(log_uniform, log_uniform, log_uniform, log_uniform), min_size=1, max_size=12,
).map(lambda xyzas: [ZParams(n, *v) for v in xyzas])))
@example(list(small_grid(5)))
@example(list(small_grid(6)))
# the lone quotient sink of each point is vertex 1, 2, n-1 and n in turn
@example([ZParams(6, 0.5, 1.0, 0.125, 2.0), ZParams(6, 0.125, 2.0, 0.5, 1.0),
          ZParams(6, 0.125, 0.5, 8.0, 2.0), ZParams(6, 0.5, 0.125, 2.0, 8.0)])
@example(list(small_grid(40))[::3])
def test_zstack_columns_equal_the_point_functions(ps):
    # every column of row i is what the one-point functions give for point i
    # on the order-n matrix: the quotient's Perron pair, lifted, is the full
    # solve's (bit for bit at n = 5, where the quotient is Z_5), and its
    # 5-vertex digraph, lifted, is Z_n's
    s, n = ZStack(ps[0].n, [p.xyza for p in ps]), ps[0].n
    assert s.xyza.tolist() == [list(p.xyza) for p in ps]
    for i, p in enumerate(ps):
        one, rep = analyze(z_matrix(p)), s.report(i)
        if n == 5:
            assert same_report(rep, one), p
            assert s.w[i].tobytes() == one.w.tobytes() and s.r[i] == one.perron.r
        assert rep.A.a.tobytes() == one.A.a.tobytes()
        assert rep.w.tobytes() == s.w[i, members(n)].tobytes() == s.w[i, s.members].tobytes()
        assert np.max(np.abs(rep.w - one.w) / one.w) <= 1e-14, p
        assert abs(s.r[i] - one.perron.r) <= 1e-14 * one.perron.r, p
        assert s.r[i] == rep.perron.r
        assert np.array_equal(lifted_adj(s.adj[i], n), one.digraph.adj), p
        assert np.array_equal(rep.digraph.adj, one.digraph.adj), p
        assert s.labels[i][members(n)].tolist() == strongly_connected(one.digraph)[2]
        assert s.counts[i] == rep.scc_count == one.scc_count
        assert s.efficient[i] == rep.efficient == one.efficient
        assert (rep.certificate is None) == (one.certificate is None)
        verdict = guarantee_n5plus(p)
        assert s.guaranteed[i] == verdict.guaranteed_efficient
        assert s.exception[i] == verdict.matched_exception
        sinks = quotient_sinks_reference(one.digraph, n)
        assert quotient_sink_vertices(s.sinks[i], n) == sinks
        assert (s.sink_present[i], s.sink_vertex[i], s.agrees[i]) == (
            bool(sinks), sinks[0] if sinks else None, one.efficient != bool(sinks))
        assert s.identities[i].tolist() == identities_reference(p, s.r[i], rep.w)
        assert np.abs(s.identities[i]).max() <= 1e-9 * one.perron.r, p
        for key, column in zfamily.cell_tables(np.array([p.xyza])).items():
            assert np.array_equal(getattr(s, key)[i], column[0]), (p, key)
        predicted = s.predicted[i][np.ix_(members(n), members(n))]
        assert {(u + 1, v + 1) for u, v in np.argwhere(predicted).tolist()} == (
            predicted_edges_reference(p)), p
    with pytest.raises(ValueError, match="n >= 5"):
        ZStack(4, [(1.0, 1.0, 1.0, 1.0)])


@pytest.mark.parametrize("bad", (-1.0, 0.0, math.inf, math.nan, 1e-320))
@pytest.mark.parametrize("slot", range(4))
def test_zstack_rejects_parameters_that_zparams_rejects(bad, slot):
    # a RuntimeWarning is an error under pytest here, so none may come first
    row = [0.5, 2.0, 1.5, 1.0]
    row[slot] = bad
    with pytest.raises(ValueError, match="positive and finite"):
        ZParams(6, *row)
    with pytest.raises(ValueError, match="positive and finite") as err:
        zfamily.ZStack(6, [[1.0] * 4, row, [2.0] * 4])
    assert str(err.value).endswith(f"reciprocals; got {row}")


@pytest.mark.parametrize("xyza", ([[0.5, 2.0, 1.5]], [0.5, 2.0, 1.5, 1.0], [[[1.0] * 4]], [],
                                  np.empty((0, 4))))
def test_zstack_rejects_a_stack_not_of_shape_b_by_4(xyza):
    with pytest.raises(ValueError, match=r"non-empty \(B, 4\) stack"):
        zfamily.ZStack(6, xyza)


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
    rep, reduction = reduce_to_min_first_reference(*p.xyza)
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
    assert [m.relation for m in table_oracle(p)] == [
        rel for rel, holds in CATALOG_REFERENCE if holds(x, y, z, a)], p
    assert predicted_edges(p) == predicted_edges_reference(p), p
    assert guarantee_n5plus(p) == guarantee_n5plus_reference(p), p
    assert guarantee_a1(p.n, x, y, z) == guarantee_a1_reference(x, y, z), p
    # every edge present, so each clause whose relation holds is reported
    G = complete_digraph(p.n)
    assert forbidden_reverse_edges(p, G) == forbidden_reverse_edges_reference(p, G), p
    assert guarantee_n4(x, y, z) == n4_six_cases_reference(x, y, z), p


def test_forbidden_reverse_edges_requires_the_points_order():
    # the corners are vertices 1, 2, n - 1 and n of the point's own order: read
    # on an order-7 digraph, an order-5 point's corner 5 would be a middle vertex
    p7, p5 = ZParams(7, 1.5, 1.0, 2.0, 1.0), ZParams(5, 1.5, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError, match=r"of order n; got n = 7, order 5$"):
        forbidden_reverse_edges(p7, complete_digraph(5))
    with pytest.raises(ValueError, match=r"of order n; got n = 5, order 7$"):
        forbidden_reverse_edges(p5, complete_digraph(7))
    assert forbidden_reverse_edges(p5, complete_digraph(5)) == [
        "edge (3, 5) with relation forbids (5, 3)"]


def test_relation_oracles_are_not_vacuous():
    p = ZParams(5, 0.5, 0.8, 0.25, 0.8)  # max(a, z) <= 1, a != z, x != y
    assert len(forbidden_reverse_edges(p, complete_digraph(5))) == 2
    assert forbidden_reverse_edges(p, z_point(p).report(0).digraph) == []
    # every rule holds: 12 edges among 1, 2, 7, 8 and 8 rules to or from 4 middle vertices
    assert len(predicted_edges(ZParams(8, 1.0, 1.0, 1.0, 1.0))) == 12 + 8 * 4


def test_relations_reject_nan():
    nan = float("nan")
    with pytest.raises(ValueError, match="y must be positive and finite"):
        guarantee_a1(5, 0.5, nan, 2.0)
    with pytest.raises(ValueError, match="x must be positive and finite"):
        guarantee_n4(nan, 1.0, 1.0)


@pytest.mark.parametrize("bad", (-1.0, 0.0, math.inf, math.nan, 1e-320))
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


def weak_orders(k):
    """The dense rank vectors of the weak orders of k terms."""
    return [r for r in itertools.product(range(k), repeat=k) if set(r) == set(range(max(r) + 1))]


def test_order_cells_are_the_weak_orders_with_their_rows():
    cells = weak_orders(5)
    assert list(zfamily.order_cells()) == cells
    assert list(zfamily.order_cells().values()) == list(range(541))
    # a point's row is its cell's, at any levels with the cell's order
    for b in (2.0, 10.0):
        points = [[b ** (r - one) for r in ranks] for one, *ranks in cells]
        assert zfamily._cell_rows(points).tolist() == list(map(cell_row_reference, points)) == (
            list(range(541)))


# points whose five terms (1, x, y, z, a) take at most four levels, so that each has a tie
tied_points = st.lists(log_uniform, min_size=0, max_size=3).flatmap(lambda levels: st.lists(
    st.lists(st.sampled_from([1.0, *levels]), min_size=4, max_size=4), min_size=1, max_size=30))


@settings(max_examples=200, deadline=None)
@given(tied_points)
def test_cell_rows_are_the_dense_rank_rows(points):
    assert zfamily._cell_rows(points).tolist() == list(map(cell_row_reference, points))


@pytest.mark.parametrize("fill", (0.5, 1.0, 2.0, math.inf))
@pytest.mark.parametrize("slot", range(4))
def test_cell_rows_find_no_cell_for_a_nan(slot, fill):
    # a NaN compares false both ways, as no weak order does, whatever the
    # rest of the point; nothing upstream has rejected it here
    row = [fill] * 4
    row[slot] = math.nan
    with pytest.raises(ValueError, match=r"no order cell holds \(x, y, z, a\) = \["):
        zfamily._cell_rows([[0.5, 2.0, 1.5, 1.0], row])


def test_cell_tables_read_one_quotient_table_at_every_order():
    # the 541 cell points' tables are (5, 5) rows over the quotient vertices
    # (1, 2, middle, n-1, n), with no order: lifted over the middle class at
    # each order they are the order-n edge predictions, and their forbidden,
    # claimed and sink entries are the order-n point audits', at vertex 3
    xyza = np.array([[2.0 ** (r - one) for r in ranks] for one, *ranks in weak_orders(5)])
    t = zfamily.cell_tables(xyza)
    assert {key: column.shape for key, column in t.items()} == {
        "predicted": (541, 5, 5), "forbidden": (541, 5, 5), "claimed": (541, 5, 5),
        "sink_rows": (541, 5), "exception": (541,), "guaranteed": (541,)}
    for n in (6, 7, 12):
        q = (1, 2, 3, n - 1, n)
        for i, v in enumerate(xyza.tolist()):
            p = ZParams(n, *v)
            predicted = t["predicted"][i][np.ix_(members(n), members(n))]
            assert {(u + 1, w + 1) for u, w in np.argwhere(predicted).tolist()} == (
                predicted_edges_reference(p)), p
            assert sorted(f"edge {(q[u], q[w])} with relation forbids {(q[w], q[u])}"
                          for u, w in np.argwhere(t["forbidden"][i]).tolist()) == sorted(
                forbidden_reverse_edges_reference(p, complete_digraph(n))), p
            rows = table_oracle(p)
            assert Counter(edge for m in rows for _, edge in _claims(m)) == {
                (q[u], q[w]): t["claimed"][i, u, w] for u, w in np.argwhere(t["claimed"][i])}, p
            assert Counter(m.vertex for m in rows if m.kind == "sink") == {
                q[u]: t["sink_rows"][i, u] for u in np.flatnonzero(t["sink_rows"][i])}, p
            verdict = guarantee_n5plus_reference(p)
            assert (t["guaranteed"][i], t["exception"][i]) == (
                verdict.guaranteed_efficient, verdict.matched_exception), p


def test_cell_table_exceptions_are_the_reference_verdicts_and_call_no_predicate(monkeypatch):
    # the exception column is read from the compiled clauses, not from a
    # guarantee_n5plus call per cell
    def no_call(p):
        raise AssertionError("the cell table called guarantee_n5plus")

    monkeypatch.setattr(zfamily, "guarantee_n5plus", no_call)
    zfamily._cell_tables.cache_clear()
    try:
        _, exception = zfamily._cell_tables()
    finally:
        zfamily._cell_tables.cache_clear()
    for (one, *ranks), row in zfamily.order_cells().items():
        p = ZParams(5, *(2.0 ** (r - one) for r in ranks))
        assert exception[row] == guarantee_n5plus_reference(p).matched_exception, p


def test_predicted_edges_alone_make_451_cells_strong():
    # the first link of the region theorem's cell-by-cell proof: on 451 of
    # the 541 order cells the guaranteed edges alone make the quotient
    # digraph strong, so every such point's Perron vector is efficient.  All
    # 451 are guaranteed cells (483), none an exception cell.  The predicted
    # digraph is semicomplete on only 27 cells, so strength is read off a
    # transitive closure, not the SCC counts of a semicomplete digraph
    t = zfamily.cell_tables(np.array([[2.0 ** (r - one) for r in ranks]
                                      for one, *ranks in zfamily.order_cells()]))
    predicted, loops = t["predicted"], np.eye(5, dtype=bool)
    reach = predicted | loops
    for _ in range(2):  # paths of up to 4 edges reach every vertex that any path does
        reach = (reach.astype(int) @ reach) > 0
    strong = reach.all(axis=(1, 2))
    semicomplete = (predicted | predicted.transpose(0, 2, 1) | loops).all(axis=(1, 2))
    assert (strong.sum(), t["guaranteed"].sum(), semicomplete.sum()) == (451, 483, 27)
    assert not (strong & ~t["guaranteed"]).any()


@pytest.mark.parametrize("n", (5, 7))
def test_compiled_relations_match_reference_on_every_order_cell(n):
    # one point per weak order of (1, x, y, z, a), at levels 2**(rank - rank
    # of 1); the relations read only that order, and the tied grid reaches
    # 493 of the 541
    cells = weak_orders(5)
    assert len(cells) == 541
    for one, *ranks in cells:
        assert_relations_match_reference(ZParams(n, *(2.0 ** (r - one) for r in ranks)))


def test_guarantee_n4_forms_agree_on_every_order_cell():
    # the 75 weak orders of (1, x, y, z), ties included
    cells = weak_orders(4)
    assert len(cells) == 75
    for one, *ranks in cells:
        xyz = [2.0 ** (r - one) for r in ranks]
        assert guarantee_n4(*xyz, "six_cases") == guarantee_n4(*xyz, "region_complement"), xyz


def test_stack_forms_are_the_one_point_verdicts_on_every_order_cell():
    # the 75 weak orders of (1, x, y, z) are the verify suite's a = 1 slice
    # points, in its order: each row of the n = 4 forms and of the A1 clauses,
    # read on the cell rows as the suite reads them, is the scalar verdict,
    # which is the written-out predicate's; 4 of the cells are A1 exceptions
    xyz = [[2.0 ** (r - one) for r in ranks] for one, *ranks in weak_orders(4)]
    cells = harness._slice_points()
    assert cells.tolist() == [[*v, 1.0] for v in xyz]
    for form in ("six_cases", "region_complement"):
        assert zfamily._n4_holds(np.array(xyz), form).tolist() == [
            guarantee_n4(*v, form) for v in xyz] == [n4_six_cases_reference(*v) for v in xyz]
    labels = zfamily._A1_EXCEPTIONS.first(zfamily._cell_rows(cells)).tolist()
    for n in (5, 8):
        assert labels == [guarantee_a1(n, *v).matched_exception for v in xyz] == [
            guarantee_a1_reference(*v).matched_exception for v in xyz]
    assert sum(label is not None for label in labels) == 4


@pytest.mark.parametrize("bad", (-1.0, 0.0, math.inf, math.nan, 1e-320))
def test_stack_forms_reject_the_first_bad_row(bad):
    # of two bad rows, the error names the first, as it reads in the input
    rows = [[0.5, 2.0, 1.5, 1.0], [1.0, bad, 1.0, 1.0], [bad, 1.0, 1.0, 1.0]]
    with pytest.raises(ValueError) as err:
        ZStack(5, rows)
    assert str(err.value) == ("x, y, z and a must be positive and finite, and so must their "
                              f"reciprocals; got {rows[1]}")


@pytest.mark.parametrize("n", (5, 7))
def test_cell_tables_and_grid_audits_match_the_point_audits(n):
    # two points per weak order of (1, x, y, z, a), at levels 3**d and
    # 0.5**d for rank gaps d, where the tables come from the 2**d point;
    # random 5-vertex quotient digraphs, read by the audits as they are and
    # by the point audits lifted to order n, where the middle class is
    # interchangeable and mutually tied, as in a Z-family Perron digraph
    cells = weak_orders(5)
    xyza = np.array([[b ** (r - one) for r in ranks] for b in (3.0, 0.5) for one, *ranks in cells])
    rng = np.random.default_rng(n)
    quotient = rng.random((len(xyza), 5, 5)) < rng.uniform(0.3, 0.9, size=(len(xyza), 1, 1))
    quotient[:, range(5), range(5)] = False
    efficient = rng.random(len(xyza)) < 0.5
    s = SimpleNamespace(**zfamily.cell_tables(xyza), adj=quotient, efficient=efficient,
                        sinks=~quotient.any(axis=2))
    audits = {cid: audit(s).tolist() for cid, audit in harness._GRID_AUDITS
              if cid.startswith(("edges.", "tables."))}
    want = {cid: [] for cid in audits}
    for i, v in enumerate(xyza.tolist()):
        p, G = ZParams(n, *v), EfficiencyDigraph(lifted_adj(quotient[i], n), 1e-9)
        predicted = {(u + 1, w + 1) for u, w in np.argwhere(
            s.predicted[i][np.ix_(members(n), members(n))]).tolist()}
        assert predicted == predicted_edges(p)
        verdict = guarantee_n5plus_reference(p)
        assert (s.guaranteed[i], s.exception[i]) == (
            verdict.guaranteed_efficient, verdict.matched_exception)
        sinks = quotient_sinks_reference(G, n)
        assert quotient_sink_vertices(s.sinks[i], n) == sinks
        want["edges.guaranteed_present"].append(not predicted_edges(p) <= G.edges)
        want["edges.no_forbidden_reverse"].append(len(forbidden_reverse_edges(p, G)))
        want["tables.claims"].append(len(table_violations(p, G, efficient[i], sinks)))
    assert audits == want
    assert all(0 < sum(map(bool, bad)) < len(bad) for bad in want.values()), {c: sum(map(bool, b)) for c, b in want.items()}


def identities_reference(p, r, w):
    """Scalar form of the ten identities (see `identity_stack`)."""
    n, (x, y, z, a) = p.n, p.xyza
    w1, w2, w3, wm, wn = w[0], w[1], w[2], w[n - 2], w[n - 1]
    k = n - 4
    return [float(v) for v in (
        r * (w2 - w1) + (y - a) * wm + (x - z) * wn,
        r * (w3 - w1) + (y - 1) * wm + (x - 1) * wn,
        r * (y * wm - w1) + (1 - y / a) * w2 + (1 - y) * k * w3 + (x - y) * wn,
        r * (x * wn - w1) + (1 - x / z) * w2 + (1 - x) * k * w3 + (y - x) * wm,
        r * (w3 - w2) + (a - 1) * wm + (z - 1) * wn,
        r * (a * wm - w2) + (1 - a / y) * w1 + (1 - a) * k * w3 + (z - a) * wn,
        r * (z * wn - w2) + (1 - z / x) * w1 + (1 - z) * k * w3 + (a - z) * wm,
        r * (wm - w3) + (1 - 1 / y) * w1 + (1 - 1 / a) * w2,
        r * (wn - w3) + (1 - 1 / x) * w1 + (1 - 1 / z) * w2,
        r * (wn - wm) + (1 / y - 1 / x) * w1 + (1 / a - 1 / z) * w2,
    )]


def middle_residual_reference(p, r, w):
    """The largest |(Z_n w)_j - r w_j| over the middle rows j, row by row."""
    a = z_matrix(p).a
    return max(abs(float(a[j] @ w) - r * w[j]) for j in range(2, p.n - 2))


@pytest.mark.parametrize("n", (5, 6, 7))
def test_identity_stack_equals_the_point_identities_bit_for_bit(n):
    # the grid's quotient solve, as the suite reads it, against each point's
    # own residuals, the scalar formula and the explicit middle rows on the
    # pair lifted to order n, which is the order-n solve's
    quotient = z_stack(5, harness._GRID)
    quotient[:, :, 2] *= n - 4  # Z_5 with column 3 scaled by n - 4
    pps = perron_stack(quotient)
    ids = zfamily.identity_stack(n, harness._GRID, pps.r, pps.w)
    s = zfamily.ZStack(n, harness._GRID)
    assert s.w.tobytes() == pps.w.tobytes() and s.identities.tobytes() == ids.tobytes()
    middle = s.middle_residual()
    for i, v in enumerate(harness._GRID.tolist()):
        p, r, w = ZParams(n, *v), float(pps.r[i]), pps.w[i, members(n)]
        res = eigen_identity_residuals(p)
        assert ids[i].tolist() == list(res.identities) == identities_reference(p, r, w)
        assert middle[i] == pytest.approx(res.middle_deviation_max, rel=0, abs=1e-15 * r)
        assert res.middle_deviation_max == pytest.approx(
            middle_residual_reference(p, r, w), rel=0, abs=1e-15 * r)
        assert res.middle_deviation_max <= 1e-10 * w[2]
        assert res.identities_max == max(map(abs, res.identities))
        assert (res.r, res.rows_max) == (pps.r[i], pps.residual[i])
        one = perron(z_matrix(p))
        assert np.max(np.abs(w - one.w) / one.w) <= 1e-14 and abs(r - one.r) <= 1e-14 * one.r


def test_a_wrong_class_weight_turns_the_middle_collapse_audit_red(monkeypatch):
    # solve each quotient of order n >= 6 with the middle class weighted
    # k - 1 in place of k = n - 4: the lifted pair is then no eigenpair of
    # Z_n, and its middle rows under the explicit order-n matvec miss by w_3
    def wrong_weight(a, *args, **kwargs):
        a = a.copy()
        a[:, :, 2] -= a[:, :, 2] > 1  # column 3 of Q holds k
        return perron_stack(a, *args, **kwargs)

    monkeypatch.setattr(zfamily, "perron_stack", wrong_weight)
    audit = dict(harness._GRID_AUDITS)["identities.middle_collapse"]
    for n in (5, 6, 7):
        assert audit(zfamily.ZStack(n, harness._GRID)).all() == (n > 5)
    p = ZParams(6, 0.5, 2.0, 1.5, 1.0)
    assert eigen_identity_residuals(p).middle_deviation_max > 0.5 * ZStack(p.n, [p.xyza]).w[0, 2]
    records, _, _ = harness._grid_checks(1e-9)
    failed = {r.check_id: r.detail for r in records if not r.passed}
    assert failed["identities.middle_collapse"] == (
        "1250 violations; first: ZParams(6, 0.25, 0.25, 0.25, 0.25)")


@pytest.mark.parametrize("eps_rel", [0.0, 1e-9, 1e-3])
def test_quotient_certificates_are_the_lifts(eps_rel):
    # the middle class is one tied block of an equitable partition, so each
    # inefficient point's SCC count, beta, certified flag and certificate on
    # the 5 x 5 quotient are those of its lift to order n, bit for bit (the
    # certificate lifted as w is, by repeating w_3)
    rng, inefficient = np.random.default_rng(30), 0
    for n in (*range(5, 13), 20, 47, 100):
        s = ZStack(n, np.exp(rng.uniform(-3.0, 3.0, (1500, 4))), eps_rel)
        ineff = ~s.efficient
        lifted = DigraphStack(*s.lift(ineff), eps_rel)
        assert lifted.counts.tolist() == s.counts[ineff].tolist()
        assert lifted.certified.tolist() == s.certified[ineff].tolist()
        assert lifted.beta.tobytes() == s.beta[ineff].tobytes()
        members = np.r_[0, 1, np.full(n - 4, 2), 3, 4]
        assert lifted.certificates.tobytes() == s.certificates[ineff][:, members].tobytes()
        inefficient += int(ineff.sum())
    assert inefficient >= 1000


def test_zstack_at_order_a_million_solves_the_quotient_alone():
    # no order-n array is built: the verify grid at n = 10**6 is sound, its
    # sinks agree with its verdicts, and the ten identities hold
    s = zfamily.ZStack(10**6, harness._GRID)
    assert s.a.shape == (625, 5, 5) and s.w.shape == (625, 5)
    assert not (s.guaranteed & ~s.efficient).any() and s.agrees.all()
    assert 0 < s.efficient.sum() < 625
    assert (np.abs(s.identities).max(axis=1) <= 1e-9 * s.r).all()
    assert (s.perron.residual <= 1e-9 * s.r).all()


def test_middle_residual_needs_no_order_n_matrix(monkeypatch):
    # the middle rows of Z_n are all ones, so their residual reads the lifted
    # w alone: at n = 10**6 an order-n Z_n would take 7.28 TiB
    def quotient_only(n, xyza):
        assert n == 5, f"an order-{n} Z_n was built"
        return z_stack(n, xyza)

    monkeypatch.setattr(zfamily, "z_stack", quotient_only)
    res = eigen_identity_residuals(ZParams(10**6, 0.5, 2.0, 1.5, 0.25))
    w3 = ZStack(10**6, [(0.5, 2.0, 1.5, 0.25)]).w[0, 2]
    assert res.middle_deviation_max <= 1e-12 * res.r * w3


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=5, max_value=9), log_uniform, log_uniform, log_uniform,
       log_uniform)
def test_compiled_relations_match_reference_log_uniform(n, x, y, z, a):
    assert_relations_match_reference(ZParams(n, x, y, z, a))
