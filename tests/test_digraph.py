import inspect
import itertools
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    consistent_from_vector,
    hamiltonian_cycle_reference,
    lp_gain,
    pareto_dominates_reference,
    same_report,
    scale_source_reference,
)

from recipeff.core import (
    ReciprocalMatrix,
    make_reciprocal,
    pareto_dominates,
    perron,
    perron_stack,
    random_reciprocal,
    random_reciprocal_stack,
)
import recipeff.digraph as dg
from recipeff.digraph import (
    EfficiencyDigraph,
    analyze,
    build_digraph,
    dominating_vector,
    hamiltonian_cycle,
    hamiltonian_cycles,
    no_source_theorem_check,
    sinks,
    sources,
    strongly_connected,
)
from recipeff.harness import _GRID
from recipeff.zfamily import ZStack


@pytest.fixture
def counterexample():
    A = make_reciprocal(
        np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.5, 1.0, 1.0]])
    )
    return A, np.array([1.0, 2.0, 3.0])


def test_counterexample_digraph_structure(counterexample):
    A, w = counterexample
    G = build_digraph(A, w)
    assert G.edges == {(2, 1), (3, 1), (3, 2)}
    assert sources(G) == (3,)
    assert sinks(G) == (1,)
    ok, k, labels = strongly_connected(G)
    assert not ok and k == 3
    # condensation order: the source component first, the sink last
    assert labels == [2, 1, 0]


def test_counterexample_certificate(counterexample):
    A, w = counterexample
    w2 = dominating_vector(A, w)
    assert np.allclose(w2, [1.0, 2.0, 2.0])
    assert pareto_dominates(A, w, w2)


def test_build_digraph_keeps_ties_both_ways():
    A = consistent_from_vector(np.array([3.0, 1.0, 0.5, 2.0]))
    w = perron(A).w
    G = build_digraph(A, w)
    # every ratio equals its entry, so the digraph is complete
    assert len(G.edges) == 4 * 3
    assert strongly_connected(G)[0]


def test_build_digraph_input_checks():
    A = random_reciprocal(3, seed=0)
    with pytest.raises(ValueError, match="length"):
        build_digraph(A, np.ones(4))
    with pytest.raises(ValueError, match="nonnegative"):
        build_digraph(A, np.ones(3), eps_rel=-1e-9)
    with pytest.raises(ValueError, match="nonnegative"):
        build_digraph(A, np.ones(3), eps_rel=1.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
def test_build_digraph_rejects_nonpositive_or_nonfinite_vector(bad):
    A = random_reciprocal(3, seed=0)
    w = np.array([1.0, bad, 2.0])
    for call in (build_digraph, dominating_vector, analyze):
        with pytest.raises(ValueError, match="positive and finite"):
            call(A, w)


def test_out_neighbors_and_has_edge(counterexample):
    A, w = counterexample
    G = build_digraph(A, w)
    assert (np.flatnonzero(G.adj[2]) + 1).tolist() == [1, 2]
    assert G.has_edge(2, 1) and not G.has_edge(1, 2)


def test_components_topo_order_has_no_back_edges():
    A = random_reciprocal(7, seed=99)
    w = np.exp(np.linspace(0.0, 1.5, 7))  # arbitrary vector, often inefficient
    G = build_digraph(A, w)
    _, k, labels = strongly_connected(G)
    assert k > 1
    for i, j in G.edges:
        assert labels[i - 1] <= labels[j - 1]


def _mutual_reachability(adj):
    """Boolean transitive closure by Warshall, intersected with its transpose."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for k in range(len(adj)):
        reach |= reach[:, [k]] & reach[[k], :]
    return reach & reach.T


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["perron", "random", "near_perron", "consistent", "consistent_v"]),
    st.sampled_from([0.0, 1e-9]),
)
def test_scc_labels_match_reachability_classes(n, seed, kind, eps_rel):
    rng = np.random.default_rng(seed)
    if kind.startswith("consistent"):
        v = np.exp(rng.uniform(-2.0, 2.0, size=n))
        A = consistent_from_vector(v)
        w = v if kind == "consistent_v" else perron(A).w
    else:
        A = random_reciprocal(n, seed=seed)
        w = perron(A).w
        if kind == "random":
            w = np.exp(rng.uniform(-1.0, 1.0, size=n))
        elif kind == "near_perron":
            w = w * np.exp(rng.normal(0.0, 1e-3, size=n))
    G = build_digraph(A, w, eps_rel)
    ok, k, labels = strongly_connected(G)
    lab = np.array(labels)
    assert sorted(set(labels)) == list(range(k)) and ok == (k == 1)
    assert np.array_equal(lab[:, None] == lab[None, :], _mutual_reachability(G.adj))
    i, j = np.nonzero(G.adj)
    assert np.all(lab[i] <= lab[j])


def test_hamiltonian_cycle_on_complete_digraph():
    A = consistent_from_vector(np.array([1.0, 2.0, 3.0, 4.0]))
    G = build_digraph(A, perron(A).w)
    cyc = hamiltonian_cycle(G)
    assert cyc is not None and sorted(cyc) == [1, 2, 3, 4] and cyc[0] == 1
    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
        assert G.has_edge(u, v)


def test_hamiltonian_cycle_absent_when_not_strong(counterexample):
    A, w = counterexample
    G = build_digraph(A, w)
    assert hamiltonian_cycle(G) is None


def _assert_valid_cycle(G, cyc):
    assert cyc[0] == 1 and sorted(cyc) == list(range(1, G.n + 1))
    for u, v in zip(cyc, cyc[1:] + cyc[:1]):
        assert G.has_edge(u, v)


def _reference_cycle(G):
    """Backtracking Hamiltonian-cycle search from vertex 1 (small n only)."""
    n = G.n
    path, used = [1], {1}

    def extend() -> bool:
        if len(path) == n:
            return G.has_edge(path[-1], 1)
        for j in (np.flatnonzero(G.adj[path[-1] - 1]) + 1).tolist():
            if j not in used:
                used.add(j)
                path.append(j)
                if extend():
                    return True
                path.pop()
                used.discard(j)
        return False

    return path.copy() if extend() else None


def test_hamiltonian_cycle_matches_reference_search():
    rng = np.random.default_rng(17)
    seen = {True: 0, False: 0}
    for k in range(150):
        n = 2 + k % 7
        A = random_reciprocal(n, seed=1700 + k)
        for w in (perron(A).w, np.exp(rng.uniform(-1.0, 1.0, size=n))):
            G = build_digraph(A, w)
            ref, cyc = _reference_cycle(G), hamiltonian_cycle(G)
            assert (cyc is None) == (ref is None)
            if cyc is not None:
                _assert_valid_cycle(G, cyc)
            seen[cyc is None] += 1
    assert min(seen.values()) > 0


def test_hamiltonian_cycle_valid_for_large_orders():
    for n in range(11, 61):
        rep = analyze(random_reciprocal(n, seed=1100 + n))
        assert rep.efficient
        _assert_valid_cycle(rep.digraph, list(rep.hamiltonian))


def test_hamiltonian_iff_strongly_connected_sample():
    for k in range(60):
        A = random_reciprocal(3 + k % 5, seed=7000 + k)
        G = build_digraph(A, perron(A).w)
        assert strongly_connected(G)[0] == (hamiltonian_cycle(G) is not None)


def _semicomplete(rng, n):
    """A random semicomplete digraph on n vertices; about one pair in six is a 2-cycle."""
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    fwd, both = rng.random((n, n)) < 0.5, rng.random((n, n)) < 0.15
    return upper & (fwd | both) | (upper & (~fwd | both)).T


def _not_strong(rng, n):
    """A semicomplete digraph on n >= 2 vertices, split into two or three
    blocks with every edge between blocks forward only, vertices permuted."""
    v = np.arange(n)
    block = (v >= rng.integers(1, n)) + (v >= rng.integers(1, n + 1)).astype(int)
    same, forward = block[:, None] == block[None, :], block[:, None] < block[None, :]
    adj = _semicomplete(rng, n) & same | forward
    p = rng.permutation(n)
    return adj[np.ix_(p, p)]


def _rotational(n):
    """The rotational tournament on odd n: i -> j iff (j - i) mod n is at most (n - 1) / 2."""
    d = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return (d >= 1) & (d <= (n - 1) // 2)


def _transitive_with_back_edge(n, a, b):
    """The transitive tournament i -> j for i < j, with the edge between a < b reversed."""
    adj = np.triu(np.ones((n, n), dtype=bool), 1)
    adj[a, b], adj[b, a] = False, True
    return adj


def test_hamiltonian_cycle_is_the_reference_insertion():
    rng = np.random.default_rng(23)
    graphs = [_semicomplete(rng, n) for n in range(2, 41) for _ in range(6)]
    graphs += [_not_strong(rng, n) for n in range(2, 41) for _ in range(3)]
    for k in range(120):
        A = random_reciprocal(2 + k % 14, seed=2300 + k)
        for w in (perron(A).w, np.exp(rng.uniform(-1.0, 1.0, size=A.n))):
            graphs += [build_digraph(A, w, eps_rel).adj for eps_rel in (0.0, 1e-9)]
    for n in range(3, 102, 2):
        p = rng.permutation(n)
        graphs += [_rotational(n), _rotational(n)[np.ix_(p, p)]]
    for n in range(2, 41):
        graphs += [_transitive_with_back_edge(n, 0, n - 1),
                   _transitive_with_back_edge(n, *sorted(rng.choice(n, 2, replace=False)))]
    found = {True: 0, False: 0}
    for adj in graphs:
        G = EfficiencyDigraph(adj, 0.0)
        cyc = hamiltonian_cycle(G)
        assert cyc == hamiltonian_cycle_reference(G)
        found[cyc is None] += 1
    assert min(found.values()) > 100
    # the same digraphs as one stack per order, strong and not strong rows mixed
    mixed = 0
    for n in sorted({len(adj) for adj in graphs}):
        stack = np.array([adj for adj in graphs if len(adj) == n])
        cycles = hamiltonian_cycles(stack)
        assert len(cycles) == len(stack)
        for adj, cyc in zip(stack, cycles):
            assert cyc == hamiltonian_cycle_reference(EfficiencyDigraph(adj, 0.0))
        mixed += len({cyc is None for cyc in cycles}) == 2
    assert mixed >= 35 and hamiltonian_cycles(np.zeros((0, 4, 4), dtype=bool)) == []


def test_hamiltonian_cycles_refuse_a_digraph_that_is_not_semicomplete():
    # 1 <-> 2 and 1 <-> 3, and no edge between 2 and 3: 3 has edges both to
    # and from the cycle 1 -> 2 -> 1, and no place on it
    adj = np.zeros((2, 3, 3), dtype=bool)
    adj[:, [0, 1, 0, 2], [1, 0, 2, 0]] = True
    adj[0, 1, 2] = True  # row 0 is semicomplete and strong
    assert hamiltonian_cycles(adj[:1]) == [[1, 2, 3]]
    with pytest.raises(ValueError, match="not semicomplete"):
        hamiltonian_cycles(adj)


def _lines_run(func, call) -> set[str]:
    """The stripped source lines of `func` that ran while `call()` ran."""
    code, ran, previous = func.__code__, set(), sys.gettrace()

    def trace(frame, event, arg):
        if frame.f_code is code:
            ran.add(frame.f_lineno)
            return trace
        return None

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    lines, first = inspect.getsourcelines(func)
    return {lines[k - first].strip() for k in ran}


@pytest.mark.parametrize("n", [5, 7, 51, 101])
def test_circulant_reciprocal_matrix_gives_the_rotational_tournament(n):
    """a[i, (i + k) % n] = c_k < 1 for k <= (n - 1) / 2: the rows are cyclic
    shifts of one another, so the Perron vector is all-ones and the digraph
    is the rotational tournament, where v's lowest in-neighbour on the cycle
    often does not fit and the scan runs on to the next."""
    m, i = (n - 1) // 2, np.arange(n)
    a = np.ones((n, n))
    for k, c in enumerate(np.random.default_rng(n).uniform(0.2, 0.9, m), start=1):
        a[i, (i + k) % n], a[(i + k) % n, i] = c, 1.0 / c
    rep = analyze(make_reciprocal(a))
    assert np.abs(rep.w - 1.0).max() <= 1e-15
    assert np.array_equal(rep.digraph.adj, _rotational(n)) and rep.efficient
    ran = _lines_run(dg._insertion, lambda: _assert_valid_cycle(rep.digraph, list(rep.hamiltonian)))
    assert "ins &= ins - 1" in ran


def test_hamiltonian_cycle_agrees_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(29)
    found = {True: 0, False: 0}
    for k in range(1200):
        n = 2 + k % 15
        adj = (_semicomplete, _not_strong)[k % 3 == 0](rng, n)
        H = nx.from_numpy_array(adj.astype(int), create_using=nx.DiGraph)
        cyc = hamiltonian_cycle(EfficiencyDigraph(adj, 0.0))
        assert (cyc is None) == (not nx.is_strongly_connected(H))
        if cyc is not None:
            path = [v - 1 for v in cyc]
            assert len(path) == n and nx.is_simple_path(H, path) and H.has_edge(path[-1], path[0])
        found[cyc is None] += 1
    assert min(found.values()) > 300


def test_scc_labels_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(31)
    found = {True: 0, False: 0}
    for n in range(2, 18):  # 64 digraphs per order, one stack each
        adj = np.array([(_semicomplete, _not_strong)[k % 2](rng, n) for k in range(64)])
        counts, labels = dg._scc_counts(adj)
        labels = labels()
        for g, lab, k in zip(adj, labels, counts.tolist()):
            H = nx.from_numpy_array(g.astype(int), create_using=nx.DiGraph)
            blocks = {frozenset(np.flatnonzero(lab == b).tolist()) for b in range(k)}
            assert blocks == set(map(frozenset, nx.strongly_connected_components(H)))
            assert k == nx.number_strongly_connected_components(H)
            i, j = np.nonzero(g)
            assert (lab[i] <= lab[j]).all()  # no edge goes to a smaller label
            found[k == 1] += 1
    assert min(found.values()) >= 300


@pytest.mark.parametrize("eps_rel", (0.0, 1e-9))
def test_scc_counts_agree_with_networkx_however_they_are_read(eps_rel):
    # counts come from one pass and labels are read off it on demand, so the
    # counts must not depend on whether, or when, the labels were read
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(41)
    found = set()
    for n in range(2, 13):  # 1,024 rows in all
        B = 1024 // 11 + (n == 2)
        As = random_reciprocal_stack(n, B, seed=4100 + n)
        ws = np.exp(rng.uniform(-1, 1, (B, n)) * np.exp(rng.uniform(-4, 2.5, (B, 1))))
        alone, before, after = (dg.DigraphStack(As, ws, eps_rel) for _ in range(3))
        counts = before.counts  # before the labels
        assert before.labels.shape == (B, n) and after.labels.shape == (B, n)
        for s in (alone, before, after):  # alone, and after the labels
            assert s.counts.tolist() == counts.tolist()
        for A, w, adj, k, lab in zip(As, ws, alone.adj, counts.tolist(), after.labels):
            H = nx.from_numpy_array(adj.astype(int), create_using=nx.DiGraph)
            assert k == nx.number_strongly_connected_components(H) == len(set(lab.tolist()))
            assert analyze(ReciprocalMatrix(A), w, eps_rel).scc_count == k
            found.add(k)
    assert found == set(range(1, 13))


def _vectors(rng, As):
    """Perron vectors on even rows of a (B, n, n) stack, and random vectors
    from near-constant to wide on odd rows: SCC counts from 1 to n."""
    B, n = As.shape[:2]
    wide = np.exp(rng.uniform(-1, 1, (B, n)) * np.exp(rng.uniform(-4, 2.5, (B, 1))))
    return np.where(np.arange(B)[:, None] % 2, wide, perron_stack(As).w)


def _near_tie(As, ws, eps_rel):
    """Rows of a (B, n, n) stack with an off-diagonal pair whose log ratio
    log(w_i / w_j) is within 1e-9 of log(a_ij (1 - eps_rel)), an edge tie."""
    gap = np.abs(np.log(ws[:, :, None] / ws[:, None, :]) - np.log(As * (1.0 - eps_rel)))
    return (gap + np.diag(np.full(As.shape[-1], np.inf)) < 1e-9).any(axis=(1, 2))


def _sources_sinks(s):
    """Each row's sources and sinks, as (B, n) masks."""
    return ~s.adj.any(axis=1), ~s.adj.any(axis=2)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6),
       st.sampled_from([0.0, 1e-9]))
def test_permuting_the_vertices_relabels_the_digraph(n, seed, eps_rel):
    # (P A P^T, P w) makes each ratio test with the same two floats, so the
    # digraph is relabelled exactly; the Perron digraph of P A P^T, solved
    # on its own, is too, away from edge ties
    rng = np.random.default_rng(seed)
    As, B = random_reciprocal_stack(n, 64, seed), 64
    ws, p = _vectors(rng, As), rng.permuted(np.tile(np.arange(n), (B, 1)), axis=1)
    rows = np.arange(B)[:, None]
    relabel = (lambda x: x[rows[..., None], p[:, :, None], p[:, None, :]] if x.ndim == 3
               else x[rows, p])
    s, sp = dg.DigraphStack(As, ws, eps_rel), dg.DigraphStack(relabel(As), relabel(ws), eps_rel)
    assert np.array_equal(sp.adj, relabel(s.adj)) and np.array_equal(sp.counts, s.counts)
    assert np.array_equal(sp.labels, relabel(s.labels))
    assert all(map(np.array_equal, _sources_sinks(sp), map(relabel, _sources_sinks(s))))
    s, sp = dg.DigraphStack(As, eps_rel=eps_rel), dg.DigraphStack(relabel(As), eps_rel=eps_rel)
    keep = ~_near_tie(As, s.w, eps_rel)
    assert np.array_equal(sp.adj[keep], relabel(s.adj)[keep])
    assert np.array_equal(sp.counts[keep], s.counts[keep])


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6),
       st.sampled_from([0.0, 1e-9]))
def test_transposing_reverses_every_edge(n, seed, eps_rel):
    # G(A^T, 1/w) has edge (i, j) iff w_j / w_i >= a_ji (1 - eps_rel): G(A, w)
    # reversed, away from edge ties, where the two roundings may disagree
    rng = np.random.default_rng(seed)
    As = random_reciprocal_stack(n, 64, seed)
    ws = _vectors(rng, As)
    keep = ~_near_tie(As, ws, eps_rel)
    s = dg.DigraphStack(As[keep], ws[keep], eps_rel)
    t = dg.DigraphStack(As[keep].swapaxes(1, 2), 1.0 / ws[keep], eps_rel)
    assert keep.sum() >= (32 if n == 2 else 60)  # an order-2 Perron vector ties exactly
    assert np.array_equal(t.adj, s.adj.swapaxes(1, 2)) and np.array_equal(t.counts, s.counts)
    assert np.array_equal(t.labels, s.counts[:, None] - 1 - s.labels)
    (src, snk), (src_t, snk_t) = _sources_sinks(s), _sources_sinks(t)
    assert np.array_equal(src_t, snk) and np.array_equal(snk_t, src)


def _hilbert(x, y):
    """Hilbert's projective distance log(max(x/y) / min(x/y)) along the last axis."""
    q = np.log(x / y)
    return q.max(axis=-1) - q.min(axis=-1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10**6),
       st.sampled_from([0.0, 1e-9]))
def test_a_diagonal_similarity_keeps_the_digraph_and_scales_the_perron_vector(n, seed, eps_rel):
    rng = np.random.default_rng(seed)
    As = random_reciprocal_stack(n, 64, seed)
    d = np.exp(rng.uniform(-2, 2, (64, n)))
    Ad = np.array([make_reciprocal(x, mode="symmetrize").a
                   for x in d[:, :, None] * As / d[:, None, :]])
    ws = _vectors(rng, As)
    keep = ~_near_tie(As, ws, eps_rel)
    s, sd = dg.DigraphStack(As, ws, eps_rel), dg.DigraphStack(Ad, d * ws, eps_rel)
    assert keep.sum() >= (32 if n == 2 else 60) and np.array_equal(sd.adj[keep], s.adj[keep])
    assert np.array_equal(sd.counts[keep], s.counts[keep])
    # The Perron vector of D A D^-1 is D w*.  For a positive A, Birkhoff-Hopf
    # contracts Hilbert's metric by tau = tanh(diam / 4), diam = max over
    # columns k, l of the spread of log(a_ik / a_il), so a computed w with
    # gap g = d_H(A w, w) has d_H(w, w*) <= g + d_H(A w, A w*) <= g + tau
    # d_H(w, w*): d_H(w, w*) <= g / (1 - tau).  The bound adds both solves'
    # bounds, with 8 (n + 2) ulps per gap for the rounding of A w, and as
    # much again for Ad's entries, which are within a few ulps of d_i a_ij
    # / d_j; D is an isometry of d_H, which ignores the scaling to w_1 = 1.
    # Stack rows are `perron`'s solves bit for bit.
    p, pd = perron_stack(As), perron_stack(Ad)
    x = d * p.w
    x /= x[:, :1]
    L = np.log(np.concatenate((As, Ad)))
    diam = np.ptp(L[:, :, :, None] - L[:, :, None, :], axis=1).max(axis=(1, 2))
    tau = np.tanh(diam.reshape(2, -1).max(axis=0) / 4.0)
    ulps = 8 * (n + 2) * np.finfo(float).eps
    gaps = [_hilbert(np.matmul(a, w[..., None])[..., 0], w) + ulps
            for a, w in ((As, p.w), (Ad, pd.w))]
    bound = (gaps[0] + gaps[1] + ulps) / (1.0 - tau)
    assert (_hilbert(pd.w, x) <= bound).all() and bound.max() < 1e-9
    keep = ~_near_tie(As, p.w, eps_rel)
    assert np.array_equal(dg.DigraphStack(Ad, eps_rel=eps_rel).adj[keep],
                          dg.DigraphStack(As, eps_rel=eps_rel).adj[keep])


def test_efficiency_agrees_with_the_linear_program():
    # supplied vectors, random and row geometric means, not Perron vectors,
    # so that no Perron solve can stall; a pair within 1e-6 of a tie in log
    # space is skipped, so that an LP tolerance never decides a verdict
    rng = np.random.default_rng(37)
    found = {True: 0, False: 0}
    for n in range(3, 13):
        a = random_reciprocal_stack(n, 50, 3700 + n)
        As = np.concatenate([a, a])
        ws = np.concatenate([np.exp(rng.uniform(-1.0, 1.0, (50, n))),
                             np.exp(np.log(a).mean(axis=2))])
        off = ~np.eye(n, dtype=bool)
        for A, w, k in zip(As, ws, dg.DigraphStack(As, ws).counts.tolist()):
            if np.abs(np.log(w[:, None] / w[None, :]) - np.log(A))[off].min() <= 1e-6:
                continue
            gain = lp_gain(A, w)
            assert (gain < 5e-7) == (k == 1), (n, A, w, gain)
            found[k == 1] += 1
    assert sum(found.values()) >= 1000 and min(found.values()) >= 100


def test_no_source_theorem_on_random_matrices():
    for k in range(40):
        A = random_reciprocal(3 + k % 6, seed=500 + k)
        assert no_source_theorem_check(A)


def _reference_no_source(A, eps_rel):
    """Loop form of the no-source check over the edge set."""
    E = build_digraph(A, perron(A).w, eps_rel).edges
    V = range(1, A.n + 1)
    if any(all((k, i) not in E for k in V) for i in V):
        return False
    return all(
        all((k, i) in E for k in V if k != i)
        or any((j, i) in E and (i, j) not in E for j in V if j != i)
        for i in V
    )


def test_no_source_check_matches_loop_reference():
    # consistent matrices at eps_rel = 0 break ratio ties either way, so
    # both verdicts occur
    seen = {True: 0, False: 0}
    for k in range(60):
        n = 3 + k % 8
        v = np.exp(np.random.default_rng(k).uniform(-2.0, 2.0, size=n))
        for A in (random_reciprocal(n, seed=k), consistent_from_vector(v)):
            for eps_rel in (0.0, 1e-9):
                ref = _reference_no_source(A, eps_rel)
                assert no_source_theorem_check(A, eps_rel) == ref
                seen[ref] += 1
    assert min(seen.values()) > 0


def test_has_no_source_stack_matches_the_loop_reference():
    # random digraphs of orders 2 to 12, a third of them semicomplete
    seen = {True: 0, False: 0}
    for n in range(2, 13):
        rng = np.random.default_rng(n)
        adj = rng.random((60, n, n)) < rng.uniform(0.3, 1.0, size=(60, 1, 1))
        missing = ~adj[:20] & ~adj[:20].swapaxes(1, 2)
        adj[:20] |= missing & np.triu(np.ones((n, n), dtype=bool), 1)
        adj[:, range(n), range(n)] = False
        got = dg.has_no_source_stack(adj).tolist()
        for g, flag in zip(adj, got):
            G = dg.EfficiencyDigraph(g, 1e-9)
            E, V = G.edges, range(1, n + 1)
            ref = all(any((k, i) in E for k in V) for i in V) and all(
                all((k, i) in E for k in V if k != i)
                or any((j, i) in E and (i, j) not in E for j in V if j != i)
                for i in V)
            assert flag == ref
            seen[ref] += 1
    assert min(seen.values()) > 50


def test_no_source_check_rejects_tiny_order():
    with pytest.raises(ValueError, match="order >= 3"):
        no_source_theorem_check(random_reciprocal(2, seed=0))


def test_dominating_vector_none_for_efficient():
    A = consistent_from_vector(np.array([1.0, 3.0, 0.5]))
    assert dominating_vector(A, perron(A).w) is None


def test_dominating_vector_random_inefficient_vectors():
    rng = np.random.default_rng(81)
    found = 0
    for k in range(30):
        A = random_reciprocal(5, seed=8100 + k)
        w = np.exp(rng.uniform(-1.0, 1.0, size=5))
        w /= w[0]
        w2 = dominating_vector(A, w)
        if w2 is None:
            assert strongly_connected(build_digraph(A, w))[0]
        else:
            found += 1
            assert pareto_dominates(A, w, w2)
            # loop form of the source scaling; the arithmetic is the same
            labels = strongly_connected(build_digraph(A, w))[2]
            S = [v for v in range(1, 6) if labels[v - 1] == 0]
            rest = [j for j in range(1, 6) if j not in S]
            beta = max(A[i, j] * w[j - 1] / w[i - 1] for i in S for j in rest)
            ref = w.copy()
            for i in S:
                ref[i - 1] = beta * w[i - 1]
            assert np.array_equal(w2, ref)
    assert found > 0  # random vectors are usually inefficient


def test_dominating_vector_multivertex_source_component():
    # Perron digraph here has source component {1, 2, 4, 5}; rescaling it
    # perturbs internal ratios by ulps, which domination must tolerate.
    rows = np.array([
        [1.0, 1.0, 1.0, 2.0, 0.25],
        [1.0, 1.0, 1.0, 0.25, 2.0],
        [1.0, 1.0, 1.0, 1.0, 1.0],
        [0.5, 4.0, 1.0, 1.0, 1.0],
        [4.0, 0.5, 1.0, 1.0, 1.0],
    ])
    A = make_reciprocal(rows)
    w = perron(A).w
    G = build_digraph(A, w)
    assert not strongly_connected(G)[0]
    assert strongly_connected(G)[2].count(0) > 1
    w2 = dominating_vector(A, w)
    assert w2 is not None
    assert pareto_dominates(A, w, w2)


def test_analyze_efficient_report():
    A = consistent_from_vector(np.array([2.0, 1.0, 4.0, 1.0]))
    rep = analyze(A)
    assert rep.efficient and rep.scc_count == 1
    assert rep.sources == () and rep.sinks == ()
    assert rep.certificate is None
    assert rep.hamiltonian is not None
    assert rep.perron is not None and rep.perron.r == pytest.approx(4.0)


def test_analyze_supplied_vector_report(counterexample):
    A, w = counterexample
    rep = analyze(A, w=w)
    assert not rep.efficient
    assert rep.perron is None
    assert rep.sources == (3,)
    assert rep.certificate is not None
    assert pareto_dominates(A, w, rep.certificate)
    assert np.array_equal(rep.w, w)


def test_analyze_report_survives_pickling(counterexample):
    A, w = counterexample
    for rep in (analyze(A, w=w), analyze(random_reciprocal(6, seed=5))):
        back = pickle.loads(pickle.dumps(rep))
        assert np.array_equal(back.w, rep.w) and np.array_equal(back.A.a, rep.A.a)
        assert (back.efficient, back.scc_count) == (rep.efficient, rep.scc_count)
        if rep.certificate is None:
            assert back.certificate is None
        else:
            assert np.array_equal(back.certificate, rep.certificate)
        assert "hamiltonian" not in vars(back)
        assert (back.sources, back.sinks, back.hamiltonian) == (
            rep.sources, rep.sinks, rep.hamiltonian)


def test_analyze_builds_views_only_when_read(monkeypatch):
    calls = []
    monkeypatch.setattr(dg, "hamiltonian_cycle",
                        lambda G: calls.append(G.n) or hamiltonian_cycle(G))
    rep = analyze(random_reciprocal(7, seed=3))
    assert calls == [] and not {"sources", "sinks", "hamiltonian"} & set(vars(rep))
    cycle = rep.hamiltonian
    assert cycle is not None and rep.hamiltonian is cycle and calls == [7]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.sampled_from([1, 2, 37]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["perron", "random"]),
    st.sampled_from([0.0, 1e-9]),
)
def test_digraph_stack_reports_equal_one_matrix_reports(n, B, seed, kind, eps_rel):
    rng = np.random.default_rng(seed)
    mats = [random_reciprocal(n, seed=seed + k) for k in range(B)]
    As = np.array([A.a for A in mats])
    ws = None if kind == "perron" else np.exp(rng.uniform(-1.0, 1.0, size=(B, n)))
    adj = dg._adjacency(As, dg.perron_stack(As).w if ws is None else ws, eps_rel)
    counts, labels = dg._scc_counts(adj)
    labels = labels()
    s = dg.DigraphStack(As, ws, eps_rel)
    assert np.array_equal(s.adj, adj) and np.array_equal(s.labels, labels)
    # a row whose certificate raises (exact ties at eps_rel = 0, as for every
    # order-2 matrix) raises the same error from its stack report, and only there
    for i in range(B):
        try:
            one = analyze(mats[i], None if ws is None else ws[i], eps_rel)
        except dg.CertificateError as exc:
            with pytest.raises(dg.CertificateError, match=str(exc)):
                s.report(i)
            continue
        assert same_report(s.report(i), one), i
        assert labels[i].tolist() == strongly_connected(one.digraph)[2]
        assert counts[i] == one.scc_count and np.array_equal(adj[i], one.digraph.adj)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=40),
    st.sampled_from([1, 3, 23]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["random", "consistent"]),
    st.sampled_from([0.0, 1e-9]),
)
def test_stacked_certificates_equal_the_per_row_reference(n, B, seed, kind, eps_rel):
    rng = np.random.default_rng(seed)
    if kind == "random":
        # vectors from near-constant to wide: SCC counts from 1 to n
        As = random_reciprocal_stack(n, B, seed)
        ws = np.exp(rng.uniform(-1, 1, (B, n)) * np.exp(rng.uniform(-4, 2.5, (B, 1))))
    else:
        # consistent matrices and their Perron vectors: at eps_rel = 0 the
        # Perron vector misses some ties by ulps, so the digraph may not be
        # strong, but no certificate may claim to dominate the exact fit
        v = np.exp(rng.uniform(-2, 2, (B, n)))
        As = np.array([make_reciprocal(x[:, None] / x[None, :], mode="symmetrize").a for x in v])
        ws = None
    s = dg.DigraphStack(As, ws, eps_rel)
    for i in range(B):
        A, w = ReciprocalMatrix(As[i]), s.w[i]
        if s.counts[i] == 1:
            assert not s.certified[i] and s.certificates[i].tobytes() == w.tobytes()
            continue
        beta, w2 = scale_source_reference(A, w, s.labels[i])
        assert s.beta[i] == beta and s.certificates[i].tobytes() == w2.tobytes(), i
        assert s.certified[i] == (beta < 1 and pareto_dominates_reference(A, w, w2)), i
        assert pareto_dominates(A, w, w2) == pareto_dominates_reference(A, w, w2), i
    assert kind == "random" or not s.certified.any()


def test_an_inefficient_report_runs_no_hamiltonian_insertion(monkeypatch, counterexample):
    # a semicomplete digraph that is not strong has no Hamiltonian cycle (Camion)
    def insertion(G):
        raise AssertionError("the insertion ran")

    monkeypatch.setattr(dg, "hamiltonian_cycle", insertion)
    inefficient = (counterexample, (random_reciprocal(9, seed=1), np.arange(1.0, 10.0)))
    for rep in (analyze(A, w) for A, w in inefficient):
        assert not rep.efficient and rep.hamiltonian is None


def test_digraph_stack_rejects_bad_vectors_and_reports_each_row():
    As = np.array([random_reciprocal(4, seed=s).a for s in (1, 2)])
    with pytest.raises(ValueError, match="length"):
        dg.DigraphStack(As, np.ones((2, 3)))
    with pytest.raises(ValueError, match="positive and finite"):
        dg.DigraphStack(As, np.array([np.ones(4), [1.0, 0.0, 1.0, 1.0]]))
    s = dg.DigraphStack(As, np.ones((2, 4)))
    assert len(s) == 2
    assert s.report(0).A.a.tobytes() == As[0].tobytes()
    assert s.report(1).A.a.tobytes() == As[1].tobytes()


def test_a_kept_report_shares_no_memory_with_its_stack():
    # a report holds copies of its rows, so keeping one keeps no stack alive
    As = np.array([random_reciprocal(6, seed=s).a for s in range(40)])
    ws = np.exp(np.random.default_rng(6).uniform(-1.0, 1.0, size=(40, 6)))
    for w in (None, ws):
        kept = dg.DigraphStack(As, w).report(7)
        assert not np.shares_memory(kept.A.a, As)
        assert w is None or not np.shares_memory(kept.w, w)
    s = dg.DigraphStack(As)
    rep = s.report(7)
    assert not any(np.shares_memory(x, y) for x in (rep.A.a, rep.w, rep.perron.w, rep.digraph.adj)
                   for y in (s.a, s.w, s.perron.w, s.adj))
    assert rep.perron.w is rep.w and rep.A.a.tobytes() == As[7].tobytes()


def test_analyze_keeps_its_callers_matrix():
    # the one-row stack is a view of A.a, so a copy would protect nothing
    A = random_reciprocal(6, seed=2)
    w = np.exp(np.random.default_rng(2).uniform(-1.0, 1.0, 6))
    assert analyze(A).A is A and analyze(A, w).A is A


def test_digraph_stack_has_no_attribute_it_does_not_compute():
    s = dg.DigraphStack(random_reciprocal(4, seed=1).a[None])
    with pytest.raises(AttributeError, match="^certificate$"):
        s.certificate
    assert not hasattr(s, "sinks")


@pytest.mark.parametrize("B", (2, 7, 300))
def test_edge_tensors_are_batch_minor(B):
    # a reduction over a vertex axis runs along the batch axis only when the
    # rows of one edge are adjacent in memory; a report's tensor is its own copy
    stacks = (dg.DigraphStack(random_reciprocal_stack(6, B, seed=B)),
              ZStack(6, np.exp(np.random.default_rng(B).uniform(-2.0, 2.0, (B, 4)))))
    for s in stacks:
        assert s.adj.strides[0] == 1, (
            f"{type(s).__name__}.adj should be batch-minor, a (B, n, n) view of an (n, n, B) "
            f"buffer, but has strides {s.adj.strides}")
        assert s.report(B - 1).digraph.adj.flags.c_contiguous
    assert all(getattr(stacks[1], k).strides[0] == 1 for k in ("predicted", "forbidden", "claimed"))


@pytest.mark.parametrize("eps_rel", (0.0, 1e-9))
@pytest.mark.parametrize("B", (0, 1, 7, 300))
def test_edge_tensor_readers_do_not_depend_on_its_memory_order(B, eps_rel, monkeypatch):
    # the same digraphs, batch-minor and in C order, give the same SCC counts
    # and labels, no-source flags, Hamiltonian cycles, row reports and sinks
    rng, adjacency, outputs = np.random.default_rng(B), dg._adjacency, {}
    inputs = [(n, random_reciprocal_stack(n, B, seed=n),
               np.exp(rng.uniform(-1, 1, (B, n)) * np.exp(rng.uniform(-4, 2.5, (B, 1)))),
               np.exp(rng.uniform(-2.0, 2.0, (B, 4)))) for n in range(2, 17)]
    for order in ("batch-minor", "C"):
        if order == "C":
            monkeypatch.setattr(dg, "_adjacency", lambda *args: np.ascontiguousarray(adjacency(*args)))
        for n, As, ws, xyza in inputs:
            s = dg.DigraphStack(As, ws, eps_rel)
            assert s.adj.flags.c_contiguous == (order == "C" or B < 2)
            reports = []
            for i in range(B):
                try:
                    reports.append(s.report(i))
                except dg.CertificateError as exc:
                    reports.append(str(exc))
            outputs[order, n] = reports, [
                s.counts.tolist(), s.labels.tolist(), dg.has_no_source_stack(s.adj).tolist(),
                dg.hamiltonian_cycles(s.adj),
                ZStack(n, xyza, eps_rel).sinks.tolist() if n >= 5 and B else None]
    for n, *_ in inputs:
        (reports, arrays), (c_reports, c_arrays) = outputs["batch-minor", n], outputs["C", n]
        assert arrays == c_arrays, n
        for one, other in zip(reports, c_reports, strict=True):
            assert one == other if isinstance(one, str) else (
                same_report(one, other) and one.digraph.adj.flags.c_contiguous), n


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("L", (2.0, 4.0))
def test_perturbed_consistent_perron_vectors_are_efficient(L, seed):
    # a consistent matrix with one upper entry scaled has an efficient
    # Perron vector (Abele-Nagy & Bozoki 2016).  100 draws at each n = 3..12:
    # v = exp(U(-2, 2)), the entry (i, j) from rng.choice(n, 2) without
    # replacement, sorted, scaled by exp(U(-L, L)); a stall raises at 5000 steps
    rng = np.random.default_rng(seed)
    for n in range(3, 13):
        a = np.empty((100, n, n))
        for k in range(100):
            v = np.exp(rng.uniform(-2.0, 2.0, n))
            m = np.outer(v, 1.0 / v)
            i, j = sorted(rng.choice(n, 2, replace=False))
            m[i, j] *= np.exp(rng.uniform(-L, L))
            a[k] = make_reciprocal(m, mode="symmetrize").a
        counts = dg.DigraphStack(a, perron_stack(a, max_iter=5000).w).counts
        assert (counts == 1).all(), (n, np.flatnonzero(counts > 1))


def _row_dominance(a):
    """(B, n, n): where row i of each matrix is at least a_ij times row j entrywise."""
    dominance = (a[:, :, None] >= a[..., None] * a[:, None]).all(axis=3)
    return dominance & ~np.eye(a.shape[-1], dtype=bool)


def test_row_dominance_gives_an_edge_of_every_perron_digraph():
    # the lemma behind the Z family's predicted edges holds for any positive
    # reciprocal matrix: where a_il >= a_ij a_jl for every l, (A w)_i >= a_ij
    # (A w)_j for every positive w, so w_i / w_j >= a_ij at the Perron vector
    dominated = 0
    for n, seed, spread in itertools.product(range(3, 9), range(5), (9.0, 100.0)):
        a = random_reciprocal_stack(n, 400, seed, log_scale=np.log(spread))
        dominance = _row_dominance(a)
        missing = dominance & ~dg.DigraphStack(a).adj
        assert not missing.any(), (n, seed, spread, np.argwhere(missing)[:3].tolist())
        dominated += int(dominance.sum())
    assert dominated == 99_738


@pytest.mark.parametrize("n", (5, 6, 7))
def test_z_family_predicted_edges_are_row_dominance_at_each_grid_point(n):
    # the cell table's edges, read at each `verify` grid point's cell, are
    # the dominance read on that point's own Z_5, and edges of its digraph
    s = ZStack(n, _GRID)
    dominance = _row_dominance(s.a)
    assert np.array_equal(s.predicted, dominance)
    assert not (dominance & ~s.adj).any() and int(dominance.sum()) == 4_700


@pytest.mark.xfail(strict=True, raises=dg.CertificateError,
                   reason="ROADMAP item 12: scaling the source block moves a within-block ratio "
                          "near 1e5 by an ulp, more than PARETO_MARGIN")
@pytest.mark.parametrize("n, seed, row, beta", ((7, 5, 132, 0.892), (8, 1, 181, 0.179),
                                                (9, 4, 11, 0.588), (9, 8, 119, 0.069)))
def test_wide_inefficient_perron_vectors_are_certified(n, seed, row, beta):
    # valid input: two SCCs and a source scaling below 1, yet the dominance
    # re-check fails, and `recipeff analyze` exits 2.  These are all such rows
    # among the 981 inefficient Perron rows of orders 6 to 12, seeds 0 to 9
    a = random_reciprocal_stack(n, 200, seed, log_scale=np.log(1e4))[row]
    s = dg.DigraphStack(a[None])
    assert s.counts[0] == 2 and round(float(s.beta[0]), 3) == beta
    assert analyze(ReciprocalMatrix(a)).certificate is not None
