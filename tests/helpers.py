"""Builders and writers that only the tests need."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from recipeff.core import PARETO_MARGIN, ReciprocalMatrix, _rng, make_reciprocal
from recipeff.zfamily import (
    _CATALOG_RELATIONS,
    CYCLE_CATALOG,
    SYMMETRY_IMAGES,
    _cell_rows,
    _claims,
    order_cells,
)

FLOAT_FMT = "%.17g"  # 17 significant digits: a write/read round trip is bit-exact


def consistent_from_vector(v) -> ReciprocalMatrix:
    """The consistent matrix (v_i / v_j)."""
    v = np.asarray(v, dtype=float)
    return make_reciprocal(np.outer(v, 1.0 / v), mode="symmetrize")


def save_matrix(A: ReciprocalMatrix, path) -> None:
    lines = [",".join(FLOAT_FMT % v for v in row) for row in A.a]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_vector(w, path) -> None:
    w = np.asarray(w, dtype=float)
    Path(path).write_text(",".join(FLOAT_FMT % v for v in w) + "\n", encoding="utf-8")


def cell_row_reference(xyza) -> int:
    """The `order_cells()` row of the cell of one point (x, y, z, a), from the
    dense ranks of (1, x, y, z, a): the loop reference of `zfamily._cell_rows`."""
    v = (1.0, *xyza)
    return order_cells()[tuple(map(sorted(set(v)).index, v))]


def reduce_to_min_first_reference(x, y, z, a):
    """The first of `SYMMETRY_IMAGES`, in their fixed order, whose image puts
    a minimal coordinate first, with that image: the loop reference of the
    `reduction_used` of `zfamily.guarantee_n5plus`."""
    m = min(x, y, z, a)
    for name, image in SYMMETRY_IMAGES.items():
        img = image(x, y, z, a)
        if img[0] == m:
            return img, name
    raise AssertionError("unreachable: some coordinate attains the minimum")


def realize(n: int, codes: tuple[int, ...]) -> tuple[int, ...]:
    """Catalog vertex codes at order n: -2 is n-1, -1 is n, the rest stand."""
    return tuple(n + 1 + c if c < 0 else c for c in codes)


def table_oracle(p) -> list:
    """All `CYCLE_CATALOG` rows whose relation holds at p, with vertices
    realized at p's order, in catalog order: the loop reference of the
    catalog's cell tables.  Empty where no row matches (the catalog does
    not tile the whole parameter space)."""
    if p.n < 5:
        raise ValueError("requires n >= 5")
    hits = _CATALOG_RELATIONS.hits[_cell_rows([p.xyza])[0]]
    return [
        replace(row,
                cycles=tuple(realize(p.n, cyc) for cyc in row.cycles),
                extra_edges=tuple(realize(p.n, edge) for edge in row.extra_edges),
                vertex=None if row.vertex is None else realize(p.n, (row.vertex,))[0])
        for row, hit in zip(CYCLE_CATALOG, hits) if hit
    ]


def table_violations(p, G, efficient, quotient_sinks) -> list[str]:
    """Every catalog row matching p checked against its digraph G, the loop
    reference of the `tables.claims` audit.

    For each match: the claimed cycle edges and extra edges must be present;
    for inefficient points the quotient sinks must be the row's sink vertex
    alone.  Returns violation descriptions (expected empty).
    """
    out = []
    for m in table_oracle(p):
        out += [f"{m.relation}: {kind} edge ({u},{v}) absent"
                for kind, (u, v) in _claims(m) if not G.has_edge(u, v)]
        if m.kind == "sink" and not efficient and quotient_sinks != (m.vertex,):
            out.append(f"{m.relation}: expected sink {m.vertex}, got {quotient_sinks}")
    return out


def same_report(rep, one) -> bool:
    """Equal reports, bit for bit: vectors, Perron pairs, digraphs, SCCs and certificates."""
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


def scale_source_reference(A: ReciprocalMatrix, w: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """beta and w with its source component (label 0) scaled by beta, one row
    at a time: the reference of the certificate step `digraph._certify`.

    Every absent crossing edge (j, i) into the source S means w_i / w_j
    exceeds a_ij strictly, so scaling S down by beta = max a_ij w_j / w_i
    (< 1) shrinks all crossing deviations, zeroes at least one, and leaves
    the rest unchanged.
    """
    S = np.asarray(labels) == 0
    beta = (A.a[np.ix_(S, ~S)] * w[~S][None, :] / w[S][:, None]).max()
    w2 = w.copy()
    w2[S] = beta * w[S]
    return float(beta), w2


def pareto_dominates_reference(A: ReciprocalMatrix, w, w2) -> bool:
    """`core.pareto_dominates` on the off-diagonal entries alone, one pair of
    vectors at a time: the reference of `core.pareto_dominates_stack`."""
    dev = np.abs(A.a - w[:, None] / w[None, :])
    dev2 = np.abs(A.a - w2[:, None] / w2[None, :])
    off = ~np.eye(A.n, dtype=bool)
    if np.any(dev2[off] > dev[off] + PARETO_MARGIN):
        return False
    return bool(np.any(dev[off] - dev2[off] > PARETO_MARGIN))


def hamiltonian_cycle_reference(G) -> list[int] | None:
    """Camion insertion on numpy boolean arrays, the reference of
    `digraph.hamiltonian_cycle`: the same rounds, the same insertion point
    (the lowest on-cycle c with c -> v -> successor of c) and the same first
    row-major edge, so the same cycle, or None when G is not strong."""
    adj, n = G.adj, G.n
    nxt = np.zeros(n, dtype=np.intp)  # successor on the cycle
    on = np.zeros(n, dtype=bool)
    on[0] = True
    cin, cout = adj[0].astype(int), adj[:, 0].astype(int)  # edges from/to the cycle
    while not on.all():
        new = np.flatnonzero(~on & (cin > 0) & (cout > 0)).tolist()
        for v in new:
            c = int(np.argmax(on & adj[:, v] & adj[v, nxt]))
            nxt[v], nxt[c] = nxt[c], v
            on[v] = True
        if not new:
            u, v = np.flatnonzero(~on & (cout == 0)), np.flatnonzero(~on & (cin == 0))
            hits = np.argwhere(adj[np.ix_(u, v)])
            if not len(hits):
                return None
            x, y = new = [int(u[hits[0, 0]]), int(v[hits[0, 1]])]
            nxt[y], nxt[x], nxt[0] = nxt[0], y, x
            on[new] = True
        cin += adj[new].sum(axis=0)
        cout += adj[:, new].sum(axis=1)
    succ, cycle = nxt.tolist(), [0]
    while len(cycle) < n:
        cycle.append(succ[cycle[-1]])
    return [v + 1 for v in cycle]


def canonicalize_reference(a: np.ndarray) -> np.ndarray:
    """The upper triangle by `np.triu`, plus the transposed upper triangle of
    1/a, diagonal 1: the reference of `core._canonicalize`."""
    n = a.shape[-1]
    out = np.triu(a, 1)
    out += np.triu(1.0 / a, 1).swapaxes(-1, -2)
    out[..., range(n), range(n)] = 1.0
    return out


def random_reciprocal_stack_reference(n: int, count: int, seed: int,
                                      log_scale: float = np.log(9.0)) -> np.ndarray:
    """The draws written through `np.triu_indices` and `canonicalize_reference`,
    with the same overflow error: the reference of `core.random_reciprocal_stack`."""
    iu, ju = np.triu_indices(n, k=1)
    u = _rng(seed).uniform(-log_scale, log_scale, (count, len(iu)))
    a = np.ones((count, n, n))
    with np.errstate(over="ignore", divide="ignore"):
        a[:, iu, ju] = np.exp(u)
        out = canonicalize_reference(a)
    ok = np.isfinite(out).all(axis=(1, 2))
    if not ok.all():
        raise ValueError(f"log_scale {log_scale!r} too large: entries of row {int(ok.argmin())} "
                         f"of seed {seed}'s stack or their reciprocals overflow")
    return out


def lp_gain(a, w):
    """Efficiency of w for a as a linear program (Blanquero, Carrizosa & Conde
    2006; Bozóki & Fülöp 2018): with t_ij = log(w'_i/w'_j) - log(w_i/w_j) for
    i < j and w'_1 = w_1, keep each t_ij between 0 and g_ij = log a_ij -
    log(w_i/w_j), and maximise the sum of sign(g_ij) t_ij.  w is efficient
    iff the optimum is 0."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = len(w)
    i, j = np.triu_indices(n, 1)
    g = np.log(a[i, j]) - np.log(w[i] / w[j])
    diff = np.zeros((len(g), n))  # the variables are log w' - log w; diff takes t from them
    diff[np.arange(len(g)), i], diff[np.arange(len(g)), j] = 1.0, -1.0
    res = linprog(-np.sign(g) @ diff, A_ub=np.vstack([diff, -diff]),
                  b_ub=np.concatenate([np.maximum(g, 0.0), -np.minimum(g, 0.0)]),
                  bounds=[(0, 0)] + [(None, None)] * (n - 1), method="highs")
    assert res.status == 0, res.message
    return -res.fun
