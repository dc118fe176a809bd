"""The four-parameter perturbed-consistent family Z_n(x, y, z, a).

Z_n(x,y,z,a) is the all-ones n x n matrix with entries (1,n-1)=y, (1,n)=x,
(2,n-1)=a, (2,n)=z and their reciprocals.  This module decides, from the
parameters alone, whether the Perron eigenvector is guaranteed efficient
(`guarantee_n5plus` and the a=1 / n=4 variants), verifies the eigenvector
identities and guaranteed-edge conditions that drive those predicates, and
checks the sink characterization of inefficiency.

Region verdict labels: the efficiency region is the complement of twelve
exception clauses, organized as four symmetric variants T5..T8 (one per
monomial symmetry of the family) with clauses (i)/(ii)/(iii) each, plus
A1(i)..A1(iv) on the a=1 slice.  The labels are opaque region codes.

Middle indices 3..n-2 carry identical all-ones rows, so their Perron
components are exactly equal and every middle vertex is interchangeable
with vertex 3.  Sink detection for this family therefore works on the
quotient digraph with the middle class contracted to one vertex; for n = 5
that is the digraph itself.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import ReciprocalMatrix
from .digraph import (
    DEFAULT_EPS_REL,
    EfficiencyDigraph,
    EfficiencyReport,
    analyze_stack,
)


def _require_positive(**params: float) -> None:
    """Reject a parameter that is not positive and finite (NaN included)."""
    for name, v in params.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite")


@dataclass(frozen=True)
class ZParams:
    n: int
    x: float
    y: float
    z: float
    a: float

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("n must be at least 4")
        _require_positive(x=self.x, y=self.y, z=self.z, a=self.a)

    @property
    def xyza(self) -> tuple[float, float, float, float]:
        return (self.x, self.y, self.z, self.a)


@dataclass(frozen=True)
class RegionVerdict:
    guaranteed_efficient: bool
    matched_exception: str | None
    reduction_used: str

    def __post_init__(self) -> None:
        if self.guaranteed_efficient != (self.matched_exception is None):
            raise ValueError("verdict and exception label must agree")


def _z_stack(ps: Sequence[ZParams]) -> np.ndarray:
    """(len(ps), n, n) stack of the canonical Z_n matrices of points of one order n."""
    n = ps[0].n
    out = np.ones((len(ps), n, n))
    for (i, j), v in zip(((0, n - 1), (0, n - 2), (1, n - 1), (1, n - 2)),
                         np.array([p.xyza for p in ps], dtype=float).T):
        out[:, i, j] = v
        out[:, j, i] = 1.0 / v
    return out


def z_matrix(p: ZParams) -> ReciprocalMatrix:
    return ReciprocalMatrix(_z_stack([p])[0])


# The three nontrivial monomial symmetries of the family, as parameter maps:
# swapping rows/cols (n-1) and n maps (x,y,z,a) -> (y,x,a,z); swapping 1 and
# 2 maps to (z,a,x,y); doing both maps to (a,z,y,x).  Each is an involution.
# The order is the tie order of `reduce_to_min_first`.
SYMMETRY_IMAGES: dict[str, Callable[[float, float, float, float], tuple]] = {
    "identity": lambda x, y, z, a: (x, y, z, a),
    "(y,x,a,z)": lambda x, y, z, a: (y, x, a, z),
    "(z,a,x,y)": lambda x, y, z, a: (z, a, x, y),
    "(a,z,y,x)": lambda x, y, z, a: (a, z, y, x),
}
_VARIANT_OF_REDUCTION = dict(zip(SYMMETRY_IMAGES, ("T5", "T6", "T7", "T8")))


def reduce_to_min_first(
    x: float, y: float, z: float, a: float
) -> tuple[tuple[float, float, float, float], str]:
    """Representative with minimal first coordinate, plus the symmetry used.

    Ties take the first matching symmetry in the fixed order identity,
    (y,x,a,z), (z,a,x,y), (a,z,y,x), so the result is deterministic.
    """
    m = min(x, y, z, a)
    for name, image in SYMMETRY_IMAGES.items():
        img = image(x, y, z, a)
        if img[0] == m:
            return img, name
    raise AssertionError("unreachable: some coordinate attains the minimum")


# --- parameter relations ---------------------------------------------------

_TERMS = ("1", "x", "y", "z", "a")


def _relation(text: str) -> np.ndarray:
    """The requirement matrix R of a relation over the terms (1, x, y, z, a).

    A relation is one or more chains joined by ";", such as
    "x < z < a < y; z < 1"; in a chain, a term "y,z" stands for each of its
    members.  R[i, j] is 2 where term i < term j is required, 1 where
    term i <= term j is, else 0.
    """
    req = np.zeros((5, 5), dtype=np.int8)
    for chain in text.split(";"):
        parts = re.split(r"(<=|<)", chain)
        for lo, op, hi in zip(parts[::2], parts[1::2], parts[2::2]):
            for i, j in itertools.product(lo.split(","), hi.split(",")):
                req[_TERMS.index(i.strip()), _TERMS.index(j.strip())] = 2 if op == "<" else 1
    return req


class _Relations:
    """Labeled requirement matrices, compiled once and tested as one stack.

    A point's order matrix holds 2, 1 or 0 where term i is <, == or > term
    j, and a relation holds iff that matrix is >= its R everywhere.  The
    dense ranks of the terms fix the order matrix, so the labels that hold
    are cached per ranks; five terms have 541 orders.
    """

    def __init__(self, labels, reqs) -> None:
        self.labels, self.reqs, self._hits = tuple(labels), np.stack(reqs), {}

    def holding(self, xyza: Sequence[float]) -> tuple:
        """The labels of the rows that hold at (x, y, z, a), in row order."""
        v = (1.0, *xyza)
        ranks = tuple(map(sorted(set(v)).index, v))
        if ranks not in self._hits:
            r = np.array(ranks)
            order = (r[:, None] <= r).astype(np.int8) + (r[:, None] < r)
            hit = (order >= self.reqs).all(axis=(1, 2))
            self._hits[ranks] = tuple(lab for lab, h in zip(self.labels, hit) if h)
        return self._hits[ranks]


def _compile(*rows: tuple[object, str]) -> _Relations:
    return _Relations([label for label, _ in rows], [_relation(t) for _, t in rows])


# exception clauses for a point with x <= min{y, z, a}
_MIN_FIRST_EXCEPTIONS = _compile(
    ("(i)", "x < z < a < y; z < 1"),
    ("(ii)", "x < y < a < z; 1 < a"),
    ("(iii)", "x <= a < 1 < y,z"),
)
# exception clauses on the a = 1 slice
_A1_EXCEPTIONS = _compile(
    ("A1(i)", "1 < z < x < y"),
    ("A1(ii)", "z < 1 < y < x"),
    ("A1(iii)", "z < x < y < 1"),
    ("A1(iv)", "x < z < 1 < y"),
)


def guarantee_n5plus(p: ZParams) -> RegionVerdict:
    """Efficiency-region verdict for n >= 5.

    Reduces (x,y,z,a) to the representative whose first coordinate is
    minimal and tests the three exception clauses there.  Outside the
    exception clauses (boundaries included) the Perron eigenvector is
    guaranteed efficient.
    """
    if p.n < 5:
        raise ValueError("guarantee_n5plus requires n >= 5")
    rep, reduction = reduce_to_min_first(*p.xyza)
    clauses = _MIN_FIRST_EXCEPTIONS.holding(rep)
    if not clauses:
        return RegionVerdict(True, None, reduction)
    return RegionVerdict(False, _VARIANT_OF_REDUCTION[reduction] + clauses[0], reduction)


def guarantee_a1(n: int, x: float, y: float, z: float) -> RegionVerdict:
    """Efficiency-region verdict for the a = 1 slice, n >= 5."""
    if n < 5:
        raise ValueError("guarantee_a1 requires n >= 5")
    _require_positive(x=x, y=y, z=z)
    label = next(iter(_A1_EXCEPTIONS.holding((x, y, z, 1.0))), None)
    return RegionVerdict(label is None, label, "identity")


# the six sufficient clauses for Z_4(x, y, z, 1)
_N4_CASES = _compile(*enumerate((
    "y <= x,1 <= z", "y,z <= x,1", "1 <= y,z <= x",
    "z <= x,1 <= y", "x,1 <= y,z", "x <= y,z <= 1",
)))


def guarantee_n4(x: float, y: float, z: float, form: str = "six_cases") -> bool:
    """Efficiency guarantee for Z_4(x, y, z, 1), in either published form.

    "six_cases" checks the six sufficient clauses directly;
    "region_complement" checks that neither interleaving pattern
    min{1,x} < min{y,z} < max{1,x} < max{y,z} (nor its mirror) holds with
    1 != x and y != z.  The two forms are equivalent.  x, y and z must be
    positive and finite.
    """
    _require_positive(x=x, y=y, z=z)
    if form == "six_cases":
        return bool(_N4_CASES.holding((x, y, z, 1.0)))
    if form == "region_complement":
        lo_x, hi_x = min(1.0, x), max(1.0, x)
        lo_yz, hi_yz = min(y, z), max(y, z)
        crossing = x != 1 and y != z and (
            lo_x < lo_yz < hi_x < hi_yz or lo_yz < lo_x < hi_yz < hi_x
        )
        return not crossing
    raise ValueError(f"unknown form {form!r}")


@dataclass(frozen=True)
class IdentityResiduals:
    """Residuals of the eigen row equations and the derived identities."""

    r: float
    rows_max: float
    identities: tuple[float, ...]
    identities_max: float
    middle_deviation_max: float


@dataclass(frozen=True, eq=False)
class ZPoint:
    """One evaluated parameter point; every check on the point reads it.

    Built by `evaluate_z_stack` only.  `report` is the `analyze` record of the
    Perron vector of Z_n(x,y,z,a).  `quotient_sinks` are the sinks of the
    middle-class quotient digraph (see `middle_quotient_sinks`); a sink
    vertex of 3 stands for the whole middle class.
    """

    p: ZParams
    report: EfficiencyReport
    quotient_sinks: tuple[int, ...]

    @property
    def r(self) -> float:
        return self.report.perron.r

    @property
    def sink_present(self) -> bool:
        return bool(self.quotient_sinks)

    @property
    def sink_vertex(self) -> int | None:
        return self.quotient_sinks[0] if self.quotient_sinks else None

    @property
    def agrees(self) -> bool:
        """Inefficient exactly when the quotient digraph has a sink."""
        return (not self.report.efficient) == self.sink_present

    @cached_property
    def identities(self) -> IdentityResiduals:
        """The eigenvector identities of the family at the Perron pair.

        The max residual of the n row equations of (Z - rI)w = 0, the ten
        two-or-three-term identities obtained by differencing those rows
        (each vanishes for an exact eigenpair), and the maximal deviation
        |w_j - w_3| over middle indices (exactly 0 is expected: middle rows
        are identical, so power iteration keeps their components equal).
        """
        n, (x, y, z, a) = self.p.n, self.p.xyza
        r, w = self.r, self.report.w
        rows_max = float(np.max(np.abs(self.report.A.a @ w - r * w)))
        w1, w2, w3 = w[0], w[1], w[2]
        wm, wn = w[n - 2], w[n - 1]
        k = n - 4
        identities = (
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
        )
        identities = tuple(float(v) for v in identities)
        mid_dev = float(np.max(np.abs(w[3 : n - 2] - w3))) if n > 5 else 0.0
        return IdentityResiduals(
            r=r,
            rows_max=rows_max,
            identities=identities,
            identities_max=max(abs(v) for v in identities),
            middle_deviation_max=mid_dev,
        )

    @property
    def table_violations(self) -> list[str]:
        """Every matching catalog row checked against the digraph.

        For each match: the claimed cycle edges and extra edges must be
        present; for inefficient points the quotient sink must be the row's
        sink vertex.  Returns violation descriptions (expected empty).
        """
        G, out = self.report.digraph, []
        for m in table_oracle(self.p):
            cycle = [(u, v) for c in m.cycles for u, v in zip(c, c[1:] + c[:1])]
            for kind, edges in (("cycle", cycle), ("extra", m.extra_edges)):
                out += [f"{m.row.relation}: {kind} edge ({u},{v}) absent"
                        for u, v in edges if not G.has_edge(u, v)]
            if (m.kind == "sink" and not self.report.efficient
                    and self.quotient_sinks != (m.vertex,)):
                out.append(f"{m.row.relation}: expected sink {m.vertex}, "
                           f"got {self.quotient_sinks}")
        return out


def evaluate_z_stack(
    ps: Sequence[ZParams], eps_rel: float = DEFAULT_EPS_REL
) -> Iterator[ZPoint]:
    """`evaluate_z` for points of one order n >= 5, evaluated as one stack.

    The points come one at a time, in order, so a caller that drops each
    one holds a single record.
    """
    n = ps[0].n
    if n < 5:
        raise ValueError("requires n >= 5")
    if any(p.n != n for p in ps):
        raise ValueError("points must share one order")
    for p, rep in zip(ps, analyze_stack(_z_stack(ps), eps_rel=eps_rel)):
        yield ZPoint(p, rep, middle_quotient_sinks(rep.digraph, n))


def evaluate_z(p: ZParams, eps_rel: float = DEFAULT_EPS_REL) -> ZPoint:
    """Evaluate Z_n(x,y,z,a), n >= 5: its `analyze` report and quotient sinks."""
    return next(evaluate_z_stack([p], eps_rel))


def eigen_identity_residuals(p: ZParams) -> IdentityResiduals:
    """The eigenvector identities at p (see `ZPoint.identities`)."""
    return evaluate_z(p).identities


# Edge rules read off the two-/three-term identities, as (edge, relation).
# Vertex codes as in the catalog below, with 3 for every middle vertex.  The
# five rules give twenty: their images under the symmetries, which permute
# both the vertices and the terms, and the transposes of those, which reverse
# the edge and every relation.
_EDGE_RULES = (
    ((1, 2), "a <= y; z <= x"),
    ((-2, -1), "y <= x; a <= z"),
    ((1, -2), "y <= 1,a,x"),
    ((1, 3), "1 <= x,y"),
    ((-2, 3), "y,a <= 1"),
)
# the entry of Z_n that holds each parameter, as vertex codes
_ENTRY = {"x": (1, -1), "y": (1, -2), "z": (2, -1), "a": (2, -2)}


def _edge_relations() -> _Relations:
    rules = {}
    for image in SYMMETRY_IMAGES.values():
        moved = image(*"xyza")  # moved[k]: the parameter that lands in place k
        terms = [0] + [_TERMS.index(t) for t in moved]
        vertex = {3: 3}
        for old, new in zip(moved, "xyza"):
            vertex.update(zip(_ENTRY[old], _ENTRY[new]))
        for (u, v), text in _EDGE_RULES:
            req = _relation(text)[np.ix_(terms, terms)]
            for edge, r in (((vertex[u], vertex[v]), req), ((vertex[v], vertex[u]), req.T)):
                rules[edge, r.tobytes()] = edge, r
    return _Relations(*zip(*rules.values()))


_EDGE_RELATIONS = _edge_relations()


@cache
def _rule_edges(n: int, u: int, v: int) -> frozenset[tuple[int, int]]:
    """The edges of rule (u, v) at order n."""
    mids = range(3, n - 1)
    return frozenset(itertools.product(mids if u == 3 else _realize(n, (u,)),
                                       mids if v == 3 else _realize(n, (v,))))


def predicted_edges(p: ZParams) -> set[tuple[int, int]]:
    """Edges guaranteed by the parameter order relations alone (`_EDGE_RULES`).

    Ten rules give edges among {1, 2, n-1, n}, ten give edges between those
    vertices and every middle vertex.
    """
    if p.n < 5:
        raise ValueError("requires n >= 5")
    return set().union(*(_rule_edges(p.n, *e) for e in _EDGE_RELATIONS.holding(p.xyza)))


# (v, relation): with the relation, edge (3, v) forbids edge (v, 3).  A
# condition "u, w <= 1 and u != w" is written as its two strict orders.
_FORBIDDEN_REVERSE = _compile(
    (2, "a < z <= 1"), (2, "z < a <= 1"),
    (1, "x < y <= 1"), (1, "y < x <= 1"),
    (-1, "1 <= x < z"), (-1, "1 <= z < x"),
    (-2, "1 <= a < y"), (-2, "1 <= y < a"),
)


def forbidden_reverse_edges(p: ZParams, G: EfficiencyDigraph) -> list[str]:
    """Conditional non-edge checks; returns violations (expected empty).

    Each clause says: if an edge from vertex 3 toward a corner vertex is
    present and the stated strict parameter relation holds, the reverse
    edge cannot also be present (a ratio tie there would force an
    impossible cancellation in the corresponding identity).
    """
    if p.n < 5:
        raise ValueError("requires n >= 5")
    corners = _realize(p.n, _FORBIDDEN_REVERSE.holding(p.xyza))
    return [f"edge {(3, v)} with relation forbids {(v, 3)}"
            for v in corners if G.has_edge(3, v) and G.has_edge(v, 3)]


def middle_quotient_sinks(G: EfficiencyDigraph, n: int) -> tuple[int, ...]:
    """Sinks of the digraph with the middle class {3..n-2} contracted.

    Valid for Z-family Perron digraphs, where the middle components are
    exactly equal and mutually tied.  For n = 5 this is just the sinks of G.
    """
    has_out = G.adj.copy()
    has_out[2 : n - 2, 2 : n - 2] = False  # edges inside the middle class
    has_out = has_out.any(axis=1)
    reps = {1: has_out[0], 2: has_out[1], 3: has_out[2 : n - 2].any(),
            n - 1: has_out[n - 2], n: has_out[n - 1]}
    return tuple(v for v, out in reps.items() if not out)


# --- catalog of known digraph structures per parameter region -------------
#
# Each row: a relation among 1, x, y, z, a (its predicate) and the cycle(s)
# plus extra edges it forces, with the vertex that can become a source or
# sink there.  Vertex codes: 1, 2, 3 literal (3 = middle-class
# representative), -2 for n-1, -1 for n.  "kind" tags what the region
# admits: "cycle" rows cover the guaranteed-efficient side; "source"/"sink"
# rows name the only vertex that can end up as a source/sink (sink rows are
# the inefficiency cases).


@dataclass(frozen=True)
class CatalogRow:
    group: int
    relation: str
    cycles: tuple[tuple[int, ...], ...]
    extra_edges: tuple[tuple[int, int], ...]
    kind: str  # "cycle" | "source" | "sink"
    vertex: int | None


CYCLE_CATALOG: tuple[CatalogRow, ...] = (
    # group 1: one Hamiltonian cycle on {1,2,3,n-1,n}
    CatalogRow(1, "x <= 1 <= a <= y,z", ((1, -1, 2, 3, -2),), (), "cycle", None),
    CatalogRow(1, "x <= z <= 1 <= y <= a", ((1, -1, 3, -2, 2),), (), "cycle", None),
    CatalogRow(1, "1 <= x <= y,z <= a", ((1, 3, -1, -2, 2),), (), "cycle", None),
    CatalogRow(1, "x <= a <= y <= 1 <= z", ((1, -1, 2, -2, 3),), (), "cycle", None),
    CatalogRow(1, "x <= a <= z <= 1 <= y", ((1, -1, 3, 2, -2),), (), "cycle", None),
    CatalogRow(1, "x <= y <= 1 <= z <= a", ((1, -1, -2, 2, 3),), (), "cycle", None),
    CatalogRow(1, "x <= y,z <= a <= 1", ((1, -1, -2, 3, 2),), (), "cycle", None),
    # group 2: two cycles whose union is strongly connected
    CatalogRow(2, "x <= 1 <= y,z <= a", ((2, 3, -2), (1, -1, -2, 2)), (), "cycle", None),
    CatalogRow(2, "x <= a <= y,z <= 1", ((3, 1, -1), (3, 2, -2)), (), "cycle", None),
    CatalogRow(2, "x <= y,z <= 1 <= a", ((1, -1, 3), (1, -1, -2, 2)), (), "cycle", None),
    CatalogRow(2, "1 <= x <= a <= y,z", ((3, -1, 2), (3, -2, 1)), (), "cycle", None),
    # groups 3-4: a cycle plus extra edges; vertex names the only possible source
    CatalogRow(3, "1 <= x <= z <= a <= y", ((3, -1, -2, 1),), ((2, 3),), "source", 2),
    CatalogRow(3, "x <= y <= a <= z <= 1", ((3, 2, 1, -1),), ((-2, 3),), "source", -2),
    CatalogRow(4, "x <= 1 <= z <= a <= y", ((1, -1, -2),), ((2, 3), (3, -2)), "source", 2),
    CatalogRow(4, "x <= y <= a <= 1 <= z", ((1, -1, 2),), ((-2, 3), (3, 1)), "source", -2),
    # group 5: a cycle plus one extra edge; vertex names the sink
    CatalogRow(5, "z < x < y < a <= 1", ((3, 2, -1, -2),), ((3, 1),), "sink", 1),
    CatalogRow(5, "x < z < a < y <= 1", ((3, 1, -1, -2),), ((3, 2),), "sink", 2),
    CatalogRow(5, "y < a < z < x <= 1", ((3, 1, -2, -1),), ((3, 2),), "sink", 2),
    CatalogRow(5, "a < y < x < z <= 1", ((3, 2, -2, -1),), ((3, 1),), "sink", 1),
    CatalogRow(5, "1 <= a < z < x < y", ((3, -2, 1, 2),), ((3, -1),), "sink", -1),
    CatalogRow(5, "1 <= y < x < z < a", ((3, -2, 2, 1),), ((3, -1),), "sink", -1),
    CatalogRow(5, "1 <= z < a < y < x", ((3, -1, 1, 2),), ((3, -2),), "sink", -2),
    CatalogRow(5, "1 <= x < y < a < z", ((3, -1, 2, 1),), ((3, -2),), "sink", -2),
    # group 6: a cycle plus two extra edges; vertex names the sink
    CatalogRow(6, "x < z < a < 1 <= y", ((1, -1, -2),), ((3, 2), (-1, 3)), "sink", 2),
    CatalogRow(6, "a < 1 <= z < x < y", ((1, 2, -2),), ((3, -1), (1, 3)), "sink", -1),
    CatalogRow(6, "z < x < y <= 1 < a", ((2, -1, -2),), ((3, 1), (-1, 3)), "sink", 1),
    CatalogRow(6, "y < 1 <= x < z < a", ((1, -2, 2),), ((3, -1), (2, 3)), "sink", -1),
    CatalogRow(6, "y < a < z < 1 <= x", ((1, -2, -1),), ((3, 2), (-2, 3)), "sink", 2),
    CatalogRow(6, "z < 1 <= a < y < x", ((1, 2, -1),), ((3, -2), (1, 3)), "sink", -2),
    CatalogRow(6, "a < y < x < 1 <= z", ((2, -2, -1),), ((3, 1), (-2, 3)), "sink", 1),
    CatalogRow(6, "x < 1 <= y < a < z", ((1, -1, 2),), ((3, -2), (2, 3)), "sink", -2),
    # group 7: a cycle missing exactly one vertex; that vertex is the sink
    CatalogRow(7, "x < z < 1 <= a < y", ((1, -1, 3, -2),), (), "sink", 2),
    CatalogRow(7, "y < a < 1 <= z < x", ((1, -2, 3, -1),), (), "sink", 2),
    CatalogRow(7, "z < a <= 1 < y < x", ((1, 3, 2, -1),), (), "sink", -2),
    CatalogRow(7, "x < y <= 1 < a < z", ((1, -1, 2, 3),), (), "sink", -2),
    CatalogRow(7, "y,z < 1 < a,x", ((1, -2, 2, -1),), (), "sink", 3),
    CatalogRow(7, "x,a < 1 < z,y", ((1, -1, 2, -2),), (), "sink", 3),
    CatalogRow(7, "y < x <= 1 < z < a", ((1, -2, 2, 3),), (), "sink", -1),
    CatalogRow(7, "a < z <= 1 < x < y", ((1, 3, 2, -2),), (), "sink", -1),
    CatalogRow(7, "a < y < 1 <= x < z", ((3, -1, 2, -2),), (), "sink", 1),
    CatalogRow(7, "z < x < 1 <= y < a", ((3, -2, 2, -1),), (), "sink", 1),
)


def _realize(n: int, codes: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(n + 1 + c if c < 0 else c for c in codes)


@dataclass(frozen=True)
class CatalogMatch:
    row: CatalogRow
    cycles: tuple[tuple[int, ...], ...]
    extra_edges: tuple[tuple[int, int], ...]
    kind: str
    vertex: int | None


_CATALOG_RELATIONS = _compile(*((row, row.relation) for row in CYCLE_CATALOG))


def table_oracle(p: ZParams) -> list[CatalogMatch]:
    """All catalog rows whose relation holds at p, with vertices realized.

    Returns an empty list when no row matches (the catalog does not tile
    the whole parameter space).
    """
    if p.n < 5:
        raise ValueError("requires n >= 5")
    return [
        CatalogMatch(
            row=row,
            cycles=tuple(_realize(p.n, cyc) for cyc in row.cycles),
            extra_edges=tuple(_realize(p.n, edge) for edge in row.extra_edges),
            kind=row.kind,
            vertex=None if row.vertex is None else _realize(p.n, (row.vertex,))[0],
        )
        for row in _CATALOG_RELATIONS.holding(p.xyza)
    ]
