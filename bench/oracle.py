"""Independent correctness checks for the benchmark, in numpy only.

Nothing here calls recipeff.  Each check recomputes a fact about an output
from the definitions: the ratio digraph (edge (i, j) iff
w_i / w_j >= a_ij (1 - eps)), reachability by boolean closure, Pareto
dominance of the entrywise deviations, and the Perron vector either from
`numpy.linalg.eig` or from the Perron-Frobenius fact that a positive
eigenvector of a positive matrix is the Perron vector.

A failed check raises `GateError` with a message that names the instance.
"""

from __future__ import annotations

import numpy as np

# recipeff's default relative edge tolerance; the benchmark never passes
# another value, so every output it checks was built with this one.
EPS_REL = 1e-9
# max |w - v| / max(v) between a returned Perron vector and numpy's, both
# scaled to first component 1.
PERRON_EIG_RTOL = 1e-9
# max |A w - r w| / (r max(w)) for a returned vector to count as an
# eigenvector.
PERRON_RESIDUAL_RTOL = 1e-10
# slack on deviations when testing dominance, relative to the entry and
# ratio compared (a rescaled block moves its ratios by an ulp or so).
DOMINANCE_RTOL = 1e-12


class GateError(AssertionError):
    """An output disagrees with the benchmark's own recomputation."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


def canonical(upper: np.ndarray) -> np.ndarray:
    """Reciprocal matrix from its upper triangle: unit diagonal, a_ji = 1/a_ij."""
    n = upper.shape[0]
    a = np.ones((n, n))
    iu, ju = np.triu_indices(n, k=1)
    a[iu, ju] = upper[iu, ju]
    a[ju, iu] = 1.0 / upper[iu, ju]
    return a


def ratio_adjacency(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Boolean adjacency of the efficiency digraph, 0-based, no loops."""
    adj = w[:, None] / w[None, :] >= a * (1.0 - EPS_REL)
    np.fill_diagonal(adj, False)
    return adj


def reachability(adj: np.ndarray) -> np.ndarray:
    """Reflexive transitive closure by repeated squaring."""
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    while True:
        m = reach.astype(np.float32)
        nxt = (m @ m) > 0
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def scc_count(adj: np.ndarray) -> int:
    """Number of strongly connected components."""
    reach = reachability(adj)
    mutual = reach & reach.T
    return int(np.unique(mutual, axis=0).shape[0])


def sources(adj: np.ndarray) -> list[int]:
    """1-based vertices without an incoming edge."""
    return [int(v) + 1 for v in np.flatnonzero(~adj.any(axis=0))]


def sinks(adj: np.ndarray) -> list[int]:
    """1-based vertices without an outgoing edge."""
    return [int(v) + 1 for v in np.flatnonzero(~adj.any(axis=1))]


def check_dominates(a: np.ndarray, w: np.ndarray, cert, what: str) -> None:
    """`cert` is positive and fits `a` at least as well as `w`, better somewhere."""
    require(cert is not None, f"{what}: missing certificate")
    c = np.asarray(cert, dtype=float)
    require(c.shape == w.shape, f"{what}: certificate has shape {c.shape}")
    require(bool(np.all(np.isfinite(c)) and np.all(c > 0)),
            f"{what}: certificate is not positive")
    rw = w[:, None] / w[None, :]
    rc = c[:, None] / c[None, :]
    off = ~np.eye(len(w), dtype=bool)
    slack = DOMINANCE_RTOL * (a + rw + rc)
    dev_w = np.abs(a - rw)
    dev_c = np.abs(a - rc)
    require(bool(np.all(dev_c[off] <= dev_w[off] + slack[off])),
            f"{what}: certificate fits some entry worse than w")
    require(bool(np.any(dev_c[off] < dev_w[off] - slack[off])),
            f"{what}: certificate fits no entry strictly better than w")


def eig_perron(a: np.ndarray) -> np.ndarray:
    """Perron vector from numpy.linalg.eig, scaled to first component 1."""
    ev, vecs = np.linalg.eig(a)
    v = np.abs(vecs[:, int(np.argmax(ev.real))].real)
    return v / v[0]


def check_perron_eig(a: np.ndarray, w: np.ndarray, what: str) -> None:
    v = eig_perron(a)
    w = np.asarray(w, dtype=float)
    dev = float(np.max(np.abs(w / w[0] - v)) / np.max(v))
    require(dev <= PERRON_EIG_RTOL,
            f"{what}: Perron vector deviates from numpy.linalg.eig by {dev:.2e} "
            f"(tolerance {PERRON_EIG_RTOL:g})")


def check_perron_residual(a: np.ndarray, w: np.ndarray, r, what: str) -> None:
    """w is positive and an eigenvector of a with eigenvalue r."""
    require(bool(np.all(np.isfinite(w)) and np.all(w > 0)),
            f"{what}: Perron vector is not positive")
    require(r is not None and np.isfinite(r) and r > 0,
            f"{what}: bad Perron value {r!r}")
    res = float(np.max(np.abs(a @ w - r * w)) / (r * np.max(w)))
    require(res <= PERRON_RESIDUAL_RTOL,
            f"{what}: eigen-residual {res:.2e} (tolerance {PERRON_RESIDUAL_RTOL:g})")


def check_verdict(a: np.ndarray, w: np.ndarray, efficient, n_scc, cert,
                  what: str) -> np.ndarray:
    """Verdict, SCC count and certificate agree with the rebuilt digraph.

    Returns the rebuilt adjacency so callers can compare more of it.
    """
    adj = ratio_adjacency(a, w)
    k = scc_count(adj)
    require(n_scc == k, f"{what}: scc_count {n_scc}, rebuilt digraph has {k}")
    require(efficient == (k == 1),
            f"{what}: efficient={efficient}, rebuilt digraph has {k} SCCs")
    if k == 1:
        require(cert is None, f"{what}: certificate given for an efficient vector")
    else:
        check_dominates(a, w, cert, what)
    return adj


def check_hamiltonian(adj: np.ndarray, cycle, what: str) -> None:
    """A reported cycle visits every vertex once along present edges."""
    if cycle is None:
        return
    n = adj.shape[0]
    c = [int(v) - 1 for v in cycle]
    require(sorted(c) == list(range(n)), f"{what}: cycle is not a permutation")
    require(all(adj[c[k], c[(k + 1) % n]] for k in range(n)),
            f"{what}: cycle uses a missing edge")
