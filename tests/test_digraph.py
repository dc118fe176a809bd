import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import consistent_from_vector

from recipeff.core import (
    make_reciprocal,
    pareto_dominates,
    perron,
    random_reciprocal,
)
import recipeff.digraph as dg
from recipeff.digraph import (
    analyze,
    analyze_stack,
    build_digraph,
    dominating_vector,
    hamiltonian_cycle,
    no_source_theorem_check,
    sinks,
    sources,
    strongly_connected,
)


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


def same_report(rep, one) -> bool:
    cert_same = (rep.certificate is None and one.certificate is None) or (
        rep.certificate is not None and one.certificate is not None
        and rep.certificate.tobytes() == one.certificate.tobytes())
    perron_same = (rep.perron is None and one.perron is None) or (
        (rep.perron.r, rep.perron.residual, rep.perron.iterations)
        == (one.perron.r, one.perron.residual, one.perron.iterations))
    return (rep.w.tobytes() == one.w.tobytes() and rep.A.a.tobytes() == one.A.a.tobytes()
            and np.array_equal(rep.digraph.adj, one.digraph.adj)
            and rep.digraph.eps_rel == one.digraph.eps_rel
            and rep.scc_count == one.scc_count and rep.efficient == one.efficient
            and cert_same and perron_same)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.sampled_from([1, 2, 37]),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(["perron", "random"]),
    st.sampled_from([0.0, 1e-9]),
)
def test_analyze_stack_reports_equal_one_matrix_reports(n, B, seed, kind, eps_rel):
    rng = np.random.default_rng(seed)
    mats = [random_reciprocal(n, seed=seed + k) for k in range(B)]
    As = np.array([A.a for A in mats])
    ws = None if kind == "perron" else np.exp(rng.uniform(-1.0, 1.0, size=(B, n)))
    adj = dg._adjacency(As, dg.perron_stack(As).w if ws is None else ws, eps_rel)
    labels, counts = dg._scc_labels(adj)
    # a row whose certificate raises (exact ties at eps_rel = 0, as for every
    # order-2 matrix) raises the same error in the stack, which ends there
    start = 0
    while start < B:
        reports = analyze_stack(As[start:], None if ws is None else ws[start:], eps_rel)
        for i in range(start, B):
            try:
                one = analyze(mats[i], None if ws is None else ws[i], eps_rel)
            except AssertionError as exc:
                with pytest.raises(AssertionError, match=str(exc)):
                    next(reports)
                break
            assert same_report(next(reports), one), i
            assert labels[i].tolist() == strongly_connected(one.digraph)[2]
            assert counts[i] == one.scc_count and np.array_equal(adj[i], one.digraph.adj)
        start = i + 1


def test_analyze_stack_rejects_bad_vectors_and_yields_lazily():
    As = np.array([random_reciprocal(4, seed=s).a for s in (1, 2)])
    with pytest.raises(ValueError, match="length"):
        next(analyze_stack(As, np.ones((2, 3))))
    with pytest.raises(ValueError, match="positive and finite"):
        next(analyze_stack(As, np.array([np.ones(4), [1.0, 0.0, 1.0, 1.0]])))
    reports = analyze_stack(As, np.ones((2, 4)))
    assert next(reports).A.a.tobytes() == As[0].tobytes()
    assert next(reports).A.a.tobytes() == As[1].tobytes()
    assert next(reports, None) is None
