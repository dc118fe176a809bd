"""Efficiency digraph of a reciprocal matrix and a positive vector.

G has vertices 1..n and an edge (i, j) whenever w_i / w_j >= a_ij, up to a
relative tolerance so that exact ratio ties (which float arithmetic
perturbs) keep both directions.  A vector is efficient (not Pareto-dominated
in entrywise deviation) iff G is strongly connected.

G is semicomplete: every pair of vertices has at least one edge.  For i < j
canonical storage gives a_ji = fl(1/a_ij); with 0 <= eps_rel < 1 and
monotone rounding, a missing (i, j) means w_i/w_j < a_ij exactly and forces
fl(w_j/w_i) >= a_ji, so (j, i) is present.  Hence the condensation is a
total order, sorting the vertices by net degree lists its blocks in that
order, the block ends follow from the degrees alone, and a strong G has a
Hamiltonian cycle (Camion 1959), which `hamiltonian_cycles` builds for a stack.

`DigraphStack` is the one array step: for a (B, n, n) stack, the Perron
vectors (unless given), the digraphs as one boolean tensor, their SCCs and,
for all rows at once, the certificates: better vectors made by scaling the
source component of the condensation down by the tightest crossing ratio,
and their checks.  `report(i)` reads row i, `analyze` is the one-matrix
case, and whole-stack audits, the certificate check among them, read arrays.
The edge tensor is batch-minor, as the Perron solve's (n, B) buffers are: a
reduction over a vertex axis runs along the B rows, not over n of them.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    PerronPair,
    ReciprocalMatrix,
    _as_real,
    _require_finite_ratios,
    pareto_dominates_stack,
    perron,
    perron_stack,
)

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

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i - 1, j - 1])


@dataclass(frozen=True, eq=False)
class EfficiencyReport:
    """One evaluation of (A, w), filled by `DigraphStack.report` only.

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
        ham = hamiltonian_cycle(self.digraph) if self.efficient else None  # Camion
        return tuple(ham) if ham else None


def _adjacency(a: np.ndarray, w: np.ndarray, eps_rel: float) -> np.ndarray:
    """(B, n, n) edge tensor of a (B, n, n) matrix stack and (B, n) vectors: a
    view of an (n, n, B) buffer, as numpy orders a reduction by strides."""
    if w.shape != a.shape[:2]:
        raise ValueError(
            f"vector length mismatch: vector has {w.shape[1]} entries, "
            f"matrix order is {a.shape[2]}"
            if w.ndim == 2 and len(w) == len(a)
            else f"vector length mismatch: vectors of shape {w.shape} "
            f"for matrices of shape {a.shape}"
        )
    _require_finite_ratios(w)
    if not 0.0 <= eps_rel < 1.0:
        raise ValueError("eps_rel must be nonnegative and below 1")
    wt, n = np.ascontiguousarray(w.T), a.shape[-1]  # (n, B), so the quotients land (n, n, B)
    adj = wt[:, None] / wt >= a.transpose(1, 2, 0) * (1.0 - eps_rel)
    adj.reshape(n * n, len(a))[:: n + 1] = False
    return adj.transpose(2, 0, 1)


def build_digraph(
    A: ReciprocalMatrix, w, eps_rel: float = DEFAULT_EPS_REL
) -> EfficiencyDigraph:
    """Edge (i,j) iff w_i / w_j >= a_ij * (1 - eps_rel), i != j."""
    return EfficiencyDigraph(_adjacency(A.a[None], _as_real(w)[None], eps_rel)[0], float(eps_rel))


def _scc_counts(adj: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """SCC counts (B,) of a (B, n, n) semicomplete stack, and a function that
    reads their labels (B, n) off the same pass.

    A vertex of an earlier component of the condensation beats every vertex
    of a later one and is beaten by fewer, so it has the larger net degree
    (out- minus in-degree): sorted by it, the components are contiguous.
    The r lowest vertices end a block iff all r(n - r) crossing pairs are
    edges into them only: iff their net degrees sum to -r(n - r), as a
    transitive tournament's 1 - n, 3 - n, ..., 2r - 1 - n do (r = n always
    does).  A label counts the ends r < n with the vertex among the r
    lowest, so no edge goes to a smaller label.
    """
    n = adj.shape[-1]
    net = np.add.reduce(adj, 2) - np.add.reduce(adj, 1)
    low = np.sort(net)
    ends = np.add.accumulate(low - np.arange(1 - n, n, 2), 1) == 0
    return np.add.reduce(ends, 1), lambda: np.add.reduce(
        ends[:, None, :] & (net[:, :, None] <= low[:, None, :]), 2) - 1


def strongly_connected(G: EfficiencyDigraph) -> tuple[bool, int, list[int]]:
    """SCC decomposition: (single component?, count, per-vertex labels).

    The labels follow the condensation order (see `_scc_counts`).
    """
    counts, labels = _scc_counts(G.adj[None])
    return bool(counts[0] == 1), int(counts[0]), labels()[0].tolist()


def sources(G: EfficiencyDigraph) -> tuple[int, ...]:
    """Vertices with no incoming edge."""
    return tuple((np.flatnonzero(~G.adj.any(axis=0)) + 1).tolist())


def sinks(G: EfficiencyDigraph) -> tuple[int, ...]:
    """Vertices with no outgoing edge."""
    return tuple((np.flatnonzero(~G.adj.any(axis=1)) + 1).tolist())


def has_no_source_stack(adj: np.ndarray) -> np.ndarray:
    """The no-source property of Perron digraphs, for each digraph G of a (B, n, n)
    edge tensor, as (B,) flags: G has no source and, in the sharper witness form,
    each i missing an incoming edge has a j with (j,i) present and (i,j) absent."""
    into = adj.swapaxes(1, 2)  # into[b, i, j]: edge (j, i)
    missing_in = (~into & ~np.eye(adj.shape[-1], dtype=bool)).any(axis=2)
    witness = (into & ~adj).any(axis=2)
    return adj.any(axis=1).all(axis=1) & (witness | ~missing_in).all(axis=1)


def no_source_theorem_check(
    A: ReciprocalMatrix, eps_rel: float = DEFAULT_EPS_REL
) -> bool:
    """`has_no_source_stack` for the Perron digraph of A, n >= 3."""
    if A.n < 3:
        raise ValueError("requires order >= 3")
    return bool(has_no_source_stack(build_digraph(A, perron(A).w, eps_rel).adj[None])[0])


def _insertion(out: list[int], into: list[int]) -> list[int] | None:
    """Camion insertion on one digraph, given its rows as bitsets (see
    `hamiltonian_cycles`); the lowest set bit of m is (m & -m).bit_length() - 1."""
    n, nxt = len(out), [0] * len(out)  # nxt: successor on the cycle
    on, fro, to, full = 1, out[0], into[0], (1 << n) - 1  # fro/to: edges from/to the cycle
    while on != full:
        fit = fro & to & ~on  # a vertex that fits keeps fitting as the cycle grows
        if not fit:
            beaten, beating = full & ~(on | to), full & ~(on | fro)
            x = next((u for u in range(n) if beaten >> u & 1 and out[u] & beating), None)
            if x is None:
                return None
            y = next(v for v in range(n) if beating >> v & 1 and out[x] >> v & 1)
            nxt[y], nxt[x], nxt[0] = nxt[0], y, x
            on, fro, to = on | 1 << x | 1 << y, fro | out[x] | out[y], to | into[x] | into[y]
        while fit:
            v = (fit & -fit).bit_length() - 1
            fit &= fit - 1
            ins = on & into[v]  # candidates c, lowest first, until v -> nxt[c]
            c = (ins & -ins).bit_length() - 1
            while not out[v] >> nxt[c] & 1:
                ins &= ins - 1
                if not ins:
                    raise ValueError("the digraph is not semicomplete")
                c = (ins & -ins).bit_length() - 1
            nxt[v], nxt[c] = nxt[c], v
            on, fro, to = on | 1 << v, fro | out[v], to | into[v]
    cycle = [0]
    while len(cycle) < n:
        cycle.append(nxt[cycle[-1]])
    return [v + 1 for v in cycle]


def hamiltonian_cycles(adj: np.ndarray) -> list[list[int] | None]:
    """Directed Hamiltonian cycle from vertex 1 of each digraph G of a (B, n, n)
    semicomplete edge tensor, or None where G is not strong.

    Camion insertion on Python-int bitsets: all rows' out- and in-edges,
    packed by one `packbits`, and the vertices on, reached from and reaching
    the cycle.  From vertex 1 alone, each round inserts every v with edges
    both from and to the cycle, lowest first, after the lowest c with c ->
    v -> (successor of c); some c fits as G is semicomplete, else ValueError.
    If no v has edges both ways, the first edge x -> y, row-major, from the
    outside vertices the whole cycle beats to those that beat it goes in as
    1 -> x -> y -> (old successor of 1); with no such edge, G is not strong.
    """
    n = adj.shape[-1]
    packed = np.packbits(np.concatenate((adj, adj.swapaxes(-1, -2)), axis=-2), axis=-1,
                         bitorder="little")
    b, width = packed.tobytes(), packed.shape[-1]
    # bit v of out[u], and bit u of into[v]: edge (u, v)
    rows = [int.from_bytes(b[i:i + width], "little") for i in range(0, len(b), width)]
    return [_insertion(rows[i:i + n], rows[i + n:i + 2 * n]) for i in range(0, len(rows), 2 * n)]


def hamiltonian_cycle(G: EfficiencyDigraph) -> list[int] | None:
    """`hamiltonian_cycles` of the one digraph G."""
    return hamiltonian_cycles(G.adj[None])[0]


class CertificateError(RuntimeError):
    """An inefficient row's source scaling is not below 1, or does not dominate w."""


def _certify(s: DigraphStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The certificate step of a `DigraphStack`: each row's beta, w2 and flag.
    Every absent crossing edge (j, i) into the source component S (label 0)
    means w_i / w_j exceeds a_ij strictly, so scaling S down by beta = max
    a_ij w_j / w_i (< 1) over the crossings shrinks all crossing deviations,
    zeroes at least one, and leaves the rest unchanged.  A row is certified
    when it is not strong, beta < 1 and w2 dominates w; a strong row keeps w.
    """
    a, w, S, split = s.a, s.w, s.labels == 0, s.counts > 1
    with np.errstate(over="ignore", invalid="ignore"):  # off the crossings, or where beta >= 1
        ratio = a * w[:, None, :] / w[:, :, None]
        beta = np.where(S[:, :, None] & ~S[:, None, :], ratio, 0.0).max(axis=(1, 2))
        w2 = np.where(S & split[:, None], beta[:, None] * w, w)
        _require_finite_ratios(w2[beta < 1.0])
        return beta, w2, split & (beta < 1.0) & pareto_dominates_stack(a, w, w2)


def dominating_vector(
    A: ReciprocalMatrix, w, eps_rel: float = DEFAULT_EPS_REL
) -> np.ndarray | None:
    """A vector Pareto-dominating w, or None when w is efficient."""
    return analyze(A, w, eps_rel).certificate


class DigraphStack:
    """The array step of `analyze` for a (B, n, n) stack of canonical
    reciprocal matrices `a`: `perron`, the Perron pairs, or None when the
    vectors `w` are given; the batch-minor edge tensor `adj`; and, on first
    read, since the no-source scans read `adj` alone, the `counts` and
    `labels` of one `_scc_counts` pass and the `beta`, `certificates` and
    `certified` of `_certify`.
    """

    def __init__(self, As, ws=None, eps_rel: float = DEFAULT_EPS_REL) -> None:
        self.a = _as_real(As)
        self.perron = None if ws is not None else perron_stack(self.a)
        self.w = self.perron.w if ws is None else _as_real(ws)
        self.adj = _adjacency(self.a, self.w, eps_rel)
        self.eps_rel = float(eps_rel)

    def __getattr__(self, name: str):
        if name in ("counts", "_labels"):
            self.counts, self._labels = _scc_counts(self.adj)
        elif name == "labels":
            self.labels = self._labels()
        elif name in ("beta", "certificates", "certified"):
            self.beta, self.certificates, self.certified = _certify(self)
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.a)

    def report(self, i: int, A: ReciprocalMatrix | None = None) -> EfficiencyReport:
        """Row i's report on copies of its rows, so a kept report keeps no stack alive; `A`
        is its matrix if given.  CertificateError says why an inefficient row is not certified."""
        A, k = ReciprocalMatrix(self.a[i].copy()) if A is None else A, int(self.counts[i])
        if k > 1 and not self.certified[i]:
            raise CertificateError("source component scaling must be < 1" if not self.beta[i] < 1
                                   else "certificate failed the dominance definition")
        cert = None if k == 1 else self.certificates[i].copy()
        pair = None if self.perron is None else self.perron[i]
        w = self.w[i].copy() if pair is None else pair.w
        return EfficiencyReport(A, w, pair, EfficiencyDigraph(self.adj[i].copy(), self.eps_rel),
                                k == 1, k, cert)


def analyze(
    A: ReciprocalMatrix,
    w=None,
    eps_rel: float = DEFAULT_EPS_REL,
) -> EfficiencyReport:
    """Full efficiency report for (A, w); w defaults to the Perron vector."""
    ws = None if w is None else _as_real(w)[None]
    return DigraphStack(A.a[None], ws, eps_rel).report(0, A)
