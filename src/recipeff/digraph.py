"""Efficiency digraph of a reciprocal matrix and a positive vector.

G has vertices 1..n and an edge (i, j) whenever w_i / w_j >= a_ij, up to a
relative tolerance so that exact ratio ties (which float arithmetic
perturbs) keep both directions.  A vector is efficient (not Pareto-dominated
in entrywise deviation) iff G is strongly connected.

G is semicomplete: every pair of vertices has at least one edge.  For i < j
canonical storage gives a_ji = fl(1/a_ij); with 0 <= eps_rel < 1 and
monotone rounding, a missing (i, j) means w_i/w_j < a_ij exactly and forces
fl(w_j/w_i) >= a_ji, so (j, i) is present.  Hence the condensation is a
total order, sorting the vertices by out-degree lists its blocks in that
order, and a strong G has a Hamiltonian cycle (Camion 1959) that insertion
builds for every n.

`analyze` is the one evaluation path: Perron vector (unless w is given),
G, its SCCs and, when G is not strongly connected, an explicit better
vector, made by scaling the source component of the condensation down by
the tightest crossing ratio.  Its `EfficiencyReport` is what every other
consumer reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import PerronPair, ReciprocalMatrix, pareto_dominates, perron

DEFAULT_EPS_REL = 1e-9


@dataclass(frozen=True, eq=False)
class EfficiencyDigraph:
    """Vertex set {1..n}; adj[i-1, j-1] is True iff edge (i, j) is present."""

    adj: np.ndarray
    eps_rel: float

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edge set as 1-based pairs."""
        return frozenset(map(tuple, (np.argwhere(self.adj) + 1).tolist()))

    def out_neighbors(self, i: int) -> list[int]:
        return (np.flatnonzero(self.adj[i - 1]) + 1).tolist()

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i - 1, j - 1])


@dataclass(frozen=True, eq=False)
class EfficiencyReport:
    """One evaluation of (A, w), filled by `analyze` only.

    `perron` is the Perron pair when w was computed, else None;
    `certificate` is a vector dominating w, or None when w is efficient.
    `sources`, `sinks` and `hamiltonian` are views of `digraph`, computed
    on first read.
    """

    A: ReciprocalMatrix
    w: np.ndarray
    perron: PerronPair | None
    digraph: EfficiencyDigraph
    efficient: bool
    scc_count: int
    certificate: np.ndarray | None

    @cached_property
    def sources(self) -> tuple[int, ...]:
        return sources(self.digraph)

    @cached_property
    def sinks(self) -> tuple[int, ...]:
        return sinks(self.digraph)

    @cached_property
    def hamiltonian(self) -> tuple[int, ...] | None:
        ham = hamiltonian_cycle(self.digraph)
        return tuple(ham) if ham else None


def build_digraph(
    A: ReciprocalMatrix, w, eps_rel: float = DEFAULT_EPS_REL
) -> EfficiencyDigraph:
    """Edge (i,j) iff w_i / w_j >= a_ij * (1 - eps_rel), i != j."""
    w = np.asarray(w, dtype=float)
    if w.shape != (A.n,):
        raise ValueError("vector length mismatch")
    if not np.all(np.isfinite(w) & (w > 0)):
        raise ValueError("vector entries must be positive and finite")
    if not 0.0 <= eps_rel < 1.0:
        raise ValueError("eps_rel must be nonnegative and below 1")
    adj = w[:, None] / w[None, :] >= A.a * (1.0 - eps_rel)
    np.fill_diagonal(adj, False)
    return EfficiencyDigraph(adj=adj, eps_rel=float(eps_rel))


def strongly_connected(G: EfficiencyDigraph) -> tuple[bool, int, list[int]]:
    """SCC decomposition: (single component?, count, per-vertex labels).

    Labels follow the condensation order: every edge goes from a component
    with a smaller-or-equal label to one with a larger-or-equal label.  Sorted
    by descending out-degree, the components of a semicomplete digraph are
    contiguous in that order; a block ends wherever no edge leads back.
    """
    n = G.n
    order = np.argsort(-G.adj.sum(axis=1), kind="stable")
    ranked = G.adj[np.ix_(order, order)]
    # first[r]: earliest sorted position that sorted vertex r has an edge to
    first = np.where(ranked.any(axis=1), ranked.argmax(axis=1), n)
    reach = np.minimum.accumulate(first[::-1])[::-1]
    block = np.concatenate(([0], np.cumsum(reach[1:] >= np.arange(1, n))))
    labels = np.empty(n, dtype=int)
    labels[order] = block
    k = int(block[-1]) + 1
    return k == 1, k, labels.tolist()


def components_in_topo_order(G: EfficiencyDigraph) -> list[list[int]]:
    """Vertex lists of the SCCs, sources of the condensation first."""
    _, k, labels = strongly_connected(G)
    comps: list[list[int]] = [[] for _ in range(k)]
    for v, lab in enumerate(labels, start=1):
        comps[lab].append(v)
    return comps


def sources(G: EfficiencyDigraph) -> tuple[int, ...]:
    """Vertices with no incoming edge."""
    return tuple((np.flatnonzero(~G.adj.any(axis=0)) + 1).tolist())


def sinks(G: EfficiencyDigraph) -> tuple[int, ...]:
    """Vertices with no outgoing edge."""
    return tuple((np.flatnonzero(~G.adj.any(axis=1)) + 1).tolist())


def no_source_theorem_check(
    A: ReciprocalMatrix, eps_rel: float = DEFAULT_EPS_REL
) -> bool:
    """Structural no-source property of Perron digraphs.

    Checks that G has no source, and the sharper witness form: whenever a
    vertex i misses some incoming edge, there is a j with (j,i) present and
    (i,j) absent.
    """
    if A.n < 3:
        raise ValueError("requires order >= 3")
    adj = build_digraph(A, perron(A).w, eps_rel).adj
    missing_in = (~adj.T & ~np.eye(A.n, dtype=bool)).any(axis=1)
    witness = (adj.T & ~adj).any(axis=1)
    return bool(adj.any(axis=0).all() and np.all(witness | ~missing_in))


def _edge_between(adj: np.ndarray, src: np.ndarray, dst: np.ndarray):
    """First edge (u, v), 0-based, with src[u] and dst[v], or None."""
    u, v = np.flatnonzero(src), np.flatnonzero(dst)
    hits = np.argwhere(adj[np.ix_(u, v)])
    return (int(u[hits[0, 0]]), int(v[hits[0, 1]])) if len(hits) else None


def hamiltonian_cycle(G: EfficiencyDigraph) -> list[int] | None:
    """Directed Hamiltonian cycle starting at vertex 1, or None if G is not strong.

    Camion insertion on the semicomplete G.  The cycle grows from vertex 1
    alone.  A vertex v with edges both from and to the cycle fits between
    consecutive c -> v -> c'.  Otherwise every outside vertex is beaten by
    the whole cycle or beats it, and an edge x -> y from the beaten side to
    the beating side goes in as 1 -> x -> y -> (old successor of 1).  No
    such edge means the beaten side cannot reach the rest: G is not strong.
    """
    adj, n = G.adj, G.n
    nxt = np.zeros(n, dtype=np.intp)  # successor on the cycle
    on = np.zeros(n, dtype=bool)
    on[0] = True
    cin, cout = adj[0].astype(int), adj[:, 0].astype(int)  # edges from/to the cycle
    while not on.all():
        # a vertex that fits keeps fitting as the cycle grows
        new = np.flatnonzero(~on & (cin > 0) & (cout > 0)).tolist()
        for v in new:
            c = int(np.argmax(on & adj[:, v] & adj[v, nxt]))
            nxt[v], nxt[c] = nxt[c], v
            on[v] = True
        if not new:
            edge = _edge_between(adj, ~on & (cout == 0), ~on & (cin == 0))
            if edge is None:
                return None
            x, y = new = list(edge)
            nxt[y], nxt[x], nxt[0] = nxt[0], y, x
            on[new] = True
        cin += adj[new].sum(axis=0)
        cout += adj[:, new].sum(axis=1)
    succ, cycle = nxt.tolist(), [0]
    while len(cycle) < n:
        cycle.append(succ[cycle[-1]])
    return [v + 1 for v in cycle]


def _scale_source(A: ReciprocalMatrix, w: np.ndarray, labels) -> np.ndarray:
    """w with its source component (label 0) scaled down to a dominating vector.

    Every absent crossing edge (j, i) into the source S means w_i / w_j
    exceeds a_ij strictly, so scaling S down by beta = max a_ij w_j / w_i
    (< 1) shrinks all crossing deviations, zeroes at least one, and leaves
    the rest unchanged.
    """
    S = np.asarray(labels) == 0
    beta = (A.a[np.ix_(S, ~S)] * w[~S][None, :] / w[S][:, None]).max()
    if not beta < 1.0:
        raise AssertionError("source component scaling must be < 1")
    w2 = w.copy()
    w2[S] = beta * w[S]
    return w2


def dominating_vector(
    A: ReciprocalMatrix, w, eps_rel: float = DEFAULT_EPS_REL
) -> np.ndarray | None:
    """A vector Pareto-dominating w, or None when w is efficient."""
    return analyze(A, w, eps_rel).certificate


def analyze(
    A: ReciprocalMatrix,
    w=None,
    eps_rel: float = DEFAULT_EPS_REL,
) -> EfficiencyReport:
    """Full efficiency report for (A, w); w defaults to the Perron vector."""
    pp: PerronPair | None = None
    if w is None:
        pp = perron(A)
        w = pp.w
    w = np.asarray(w, dtype=float)
    G = build_digraph(A, w, eps_rel)
    efficient, scc_count, labels = strongly_connected(G)
    cert = None if efficient else _scale_source(A, w, labels)
    if cert is not None and not pareto_dominates(A, w, cert):
        raise AssertionError("certificate failed the dominance definition")
    return EfficiencyReport(A, w, pp, G, efficient, scc_count, cert)
