"""The four-parameter perturbed-consistent family Z_n(x, y, z, a).

Z_n(x,y,z,a) is the all-ones n x n matrix with entries (1,n-1)=y, (1,n)=x,
(2,n-1)=a, (2,n)=z and their reciprocals.  This module decides, from the
parameters alone, whether the Perron eigenvector is guaranteed efficient
(`guarantee_n5plus` and the a=1 / n=4 variants), verifies the eigenvector identities
and the row-dominance edges (`predicted_edges`) that drive those predicates, both read
off one coefficient tensor (`_coefficients`), and checks the sink characterization.

Region verdict labels: for n >= 5 the efficiency region is the complement
of twelve exception clauses T5(i)..T8(iii), T5's three and their images
under the family's symmetries, plus A1(i)..A1(iv) on the a=1 slice.  The
labels are opaque region codes.  Each rule table is generated from its
representatives: `_images` states the perturbed block's four row and column
swaps (identity included), `_reversed` the vertex reversal; eight in all.

Middle indices 3..n-2 carry identical all-ones rows, an equitable partition
(Godsil & Royle, Algebraic Graph Theory, 9.3): Z_n's Perron pair is that
of the 5 x 5 quotient (Z_5 with column 3 scaled by n - 4), lifted by
repeating w_3, and the middle class is a tied clique, so Z_n's SCCs and
sinks are read on the quotient vertices (1, 2, middle, n-1, n).  A `ZStack`
works on those at every order; `ZStack.lift` is the one route to order n.

Every parameter predicate, the exception clauses included, is a relation
string compiled to its hits on the 541 order cells, the weak orders of (1,
x, y, z, a) (`order_cells()`).  A stack finds its points' cells in one array
step (`_cell_rows`) and reads one table of all cells (`cell_tables`), of
which `guarantee_n5plus` is the one-point read.  The n = 4 and a = 1
predicates read their point's cell too, so `verify` checks them once on
each of the 75 cells of the a = 1 slice.  A `ZStack` evaluates a stack of
points of one order once, as arrays, and every consumer reads it: the
CLI's `z` reads row 0 of a one-point stack, `sweep` writes its columns and
`verify` audits them.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass, replace
from functools import cache, cached_property
from typing import Callable

import numpy as np

from .core import ReciprocalMatrix, _as_real, perron_stack
from .digraph import (
    DEFAULT_EPS_REL,
    DigraphStack,
    EfficiencyDigraph,
    EfficiencyReport,
)


def _require_positive(**params: float) -> None:
    """Reject a parameter that is not positive and finite (NaN included), or
    whose reciprocal overflows (such as 1e-320)."""
    for name, v in params.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite")
        if 1 / v == math.inf:
            raise ValueError(f"{name} must be positive and finite, and so must 1/{name}")


def _positive_stack(values) -> np.ndarray:
    """`values` as a non-empty (B, 4) stack of (x, y, z, a), each checked as by
    `_require_positive`; the error gives the first bad row."""
    v = _as_real(values)
    if v.shape[1:] != (4,) or not len(v):
        raise ValueError(f"xyza must be a non-empty (B, 4) stack, not {v.shape}")
    with np.errstate(divide="ignore", over="ignore"):
        bad = ~((v > 0) & (v < np.inf) & (1 / v < np.inf)).all(axis=1)
    if bad.any():
        raise ValueError("x, y, z and a must be positive and finite, and so must their "
                         f"reciprocals; got {v[bad.argmax()].tolist()}")
    return v


@dataclass(frozen=True)
class ZParams:
    n: int
    x: float
    y: float
    z: float
    a: float

    def __post_init__(self) -> None:
        if operator.index(self.n) < 4:
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


def z_stack(n: int, xyza: np.ndarray) -> np.ndarray:
    """(B, n, n) stack of the canonical Z_n matrices of a (B, 4) stack of (x, y, z, a);
    complex parameters raise ValueError."""
    out = np.ones((len(xyza), n, n))
    for (i, j), v in zip(((0, n - 1), (0, n - 2), (1, n - 1), (1, n - 2)), _as_real(xyza).T):
        out[:, i, j] = v
        out[:, j, i] = 1.0 / v
    return out


def z_matrix(p: ZParams) -> ReciprocalMatrix:
    return ReciprocalMatrix(z_stack(p.n, np.array([p.xyza]))[0])


# The three nontrivial monomial symmetries of the family, as parameter maps:
# swapping rows/cols (n-1) and n maps (x,y,z,a) -> (y,x,a,z); swapping 1 and
# 2 maps to (z,a,x,y); doing both maps to (a,z,y,x).  Each is an involution,
# and image k puts coordinate k first.
SYMMETRY_IMAGES: dict[str, Callable[[float, float, float, float], tuple]] = {
    "identity": lambda x, y, z, a: (x, y, z, a),
    "(y,x,a,z)": lambda x, y, z, a: (y, x, a, z),
    "(z,a,x,y)": lambda x, y, z, a: (z, a, x, y),
    "(a,z,y,x)": lambda x, y, z, a: (a, z, y, x),
}
# the entry of Z_n that holds each parameter, as vertex codes
_ENTRY = {"x": (1, -1), "y": (1, -2), "z": (2, -1), "a": (2, -2)}


def _images():
    """For each of `SYMMETRY_IMAGES` in order, the `str.translate` table taking
    a relation's text to its image's, and the map of vertex codes."""
    for image in SYMMETRY_IMAGES.values():
        moved = image(*"xyza")  # moved[k]: the parameter that lands in place k
        vertex = {3: 3}
        for old, new in zip(moved, "xyza"):
            vertex.update(zip(_ENTRY[old], _ENTRY[new]))
        yield str.maketrans("".join(moved), "xyza"), vertex


def _reversed(text: str) -> str:
    """A relation's image under the vertex reversal i -> n+1-i (codes c -> -c, 3 -> 3), which
    maps Z_n(x,y,z,a) to Z_n(1/x,1/z,1/y,1/a): each chain read backwards, y and z swapped."""
    chains = text.translate(str.maketrans("yz", "zy")).split(";")
    return "; ".join(" ".join(re.split(r"\s*(<=|<)\s*", c.strip())[::-1]) for c in chains)


def _orbit(rules):
    """The images of (vertex codes, relation) rules under the eight symmetries: under
    each of `_images()`, those of the rules and then of their reversals."""
    reversals = [([c if c == 3 else -c for c in codes], _reversed(text)) for codes, text in rules]
    for table, vertex in _images():
        for codes, text in (*rules, *reversals):
            yield tuple(vertex[c] for c in codes), text.translate(table)


# --- parameter relations ---------------------------------------------------

_TERMS = ("1", "x", "y", "z", "a")


@cache
def order_cells() -> dict[tuple[int, ...], int]:
    """The 541 weak orders, or order cells, of (1, x, y, z, a) as dense-rank
    tuples in lexicographic order, each mapped to its row in every cell table."""
    cells = (r for r in itertools.product(range(5), repeat=5) if len(set(r)) == max(r) + 1)
    return {cell: row for row, cell in enumerate(cells)}


def _orders(v: np.ndarray) -> np.ndarray:
    """The (B, 5, 5) order matrices of a (B, 5) stack of values of (1, x, y, z, a):
    2, 1 or 0 where term i is <, == or > term j.  A NaN is > both ways, as in no cell."""
    return (v[:, :, None] <= v[:, None]).astype(np.int8) + (v[:, :, None] < v[:, None])


@cache
def _cell_codes() -> tuple[np.ndarray, np.ndarray]:
    """The sorted base-3 codes of the 541 `order_cells()`' order matrices, and their rows."""
    codes = _orders(np.array(list(order_cells()))).reshape(541, 25) @ 3 ** np.arange(25)
    return np.sort(codes), np.argsort(codes)


def _cell_rows(xyza) -> np.ndarray:
    """The `order_cells()` rows of a (B, 4) stack of (x, y, z, a), or (B, 3) with a = 1, in one
    array step: each point's code is looked up in the cells'; one no cell has raises."""
    v = np.ones((len(xyza), 5))
    v[:, 1:1 + np.shape(xyza)[1]] = xyza
    (cell_codes, rows), codes = _cell_codes(), _orders(v).reshape(len(v), 25) @ 3 ** np.arange(25)
    at = np.minimum(np.searchsorted(cell_codes, codes), len(rows) - 1)
    missing = cell_codes[at] != codes
    if missing.any():
        raise ValueError(f"no order cell holds (x, y, z, a) = {v[missing.argmax(), 1:].tolist()}")
    return rows[at]


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
    """Labeled requirement matrices, tested on every order cell at once.

    A cell's order matrix holds 2, 1 or 0 where term i is <, == or > term
    j, and a relation holds iff that matrix is >= its R everywhere.
    """

    def __init__(self, labels, reqs) -> None:
        self.labels, self.reqs = tuple(labels), np.stack(reqs)

    @cached_property
    def hits(self) -> np.ndarray:
        """(541, R): whether each relation holds in each `order_cells()` cell."""
        return (_orders(np.array(list(order_cells())))[:, None] >= self.reqs).all(axis=(2, 3))

    def first(self, rows) -> np.ndarray:
        """The label of the first row holding in each of the cells `rows`, or None."""
        hits = self.hits[rows]
        labels = np.array([*self.labels, None], dtype=object)
        return labels[np.where(hits.any(axis=1), hits.argmax(axis=1), len(self.labels))]


def _compile(*rows: tuple[object, str]) -> _Relations:
    return _Relations([label for label, _ in rows], [_relation(t) for _, t in rows])


# The region's exception clauses for n >= 5: T5's hold where x is minimal;
# T6, T7 and T8 are their images under (y,x,a,z), (z,a,x,y) and (a,z,y,x).
_REGION_EXCEPTIONS = _compile(*(
    (f"T{5 + k}{clause}", text.translate(table))
    for k, (table, _) in enumerate(_images())
    for clause, text in (("(i)", "x < z < a < y; z < 1"), ("(ii)", "x < y < a < z; 1 < a"),
                         ("(iii)", "x <= a < 1 < y,z"))))
# exception clauses on the a = 1 slice: (iii) and (iv) are the reversals of (i) and (ii)
_A1_EXCEPTIONS = _compile(*zip(("A1(i)", "A1(ii)", "A1(iii)", "A1(iv)"), (
    image(text) for image in (str, _reversed) for text in ("1 < z < x < y", "z < 1 < y < x"))))


def guarantee_n5plus(p: ZParams) -> RegionVerdict:
    """Efficiency-region verdict for n >= 5: the exception clause of p's order
    cell (`_REGION_EXCEPTIONS`), read from the cell table.  Outside the
    exception clauses (boundaries included) the Perron eigenvector is
    guaranteed efficient.
    """
    if p.n < 5:
        raise ValueError("guarantee_n5plus requires n >= 5")
    label = _cell_tables()[1][_cell_rows([p.xyza])[0]]
    return RegionVerdict(label is None, label, list(SYMMETRY_IMAGES)[p.xyza.index(min(p.xyza))])


def guarantee_a1(n: int, x: float, y: float, z: float) -> RegionVerdict:
    """Efficiency-region verdict for the a = 1 slice, n >= 5: the first
    `_A1_EXCEPTIONS` clause holding in the cell of (x, y, z, 1), or none."""
    _require_positive(x=x, y=y, z=z)
    if operator.index(n) < 5:
        raise ValueError("guarantee_a1 requires n >= 5")
    label = _A1_EXCEPTIONS.first(_cell_rows([[x, y, z]]))[0]
    return RegionVerdict(label is None, label, "identity")


# the six sufficient clauses for Z_4(x, y, z, 1): four and their reversals, two their own
_N4_CASES = _compile(*enumerate(dict.fromkeys(
    text for case in ("y <= x,1 <= z", "y,z <= x,1", "1 <= y,z <= x", "z <= x,1 <= y")
    for text in (case, _reversed(case)))))


def guarantee_n4(x: float, y: float, z: float, form: str = "six_cases") -> bool:
    """Efficiency guarantee for Z_4(x, y, z, 1), in either published form.

    "six_cases" checks the six sufficient clauses directly;
    "region_complement" checks that neither interleaving pattern
    min{1,x} < min{y,z} < max{1,x} < max{y,z} (nor its mirror) holds with
    1 != x and y != z.  The two forms are equivalent.  x, y and z must be
    positive and finite.
    """
    _require_positive(x=x, y=y, z=z)
    return bool(_n4_holds(np.array([[x, y, z]]), form)[0])


def _n4_holds(xyz: np.ndarray, form: str) -> np.ndarray:
    """`guarantee_n4` of each point of a (B, 3) stack of positive (x, y, z), as (B,) bools."""
    if form == "six_cases":
        return _N4_CASES.hits[_cell_rows(xyz)].any(axis=1)
    if form == "region_complement":
        x, (lo_yz, hi_yz) = xyz[:, 0], np.sort(xyz[:, 1:]).T
        lo_x, hi_x = np.minimum(x, 1.0), np.maximum(x, 1.0)
        return ~((lo_x != hi_x) & (lo_yz != hi_yz) & (
            (lo_x < lo_yz) & (lo_yz < hi_x) & (hi_x < hi_yz)
            | (lo_yz < lo_x) & (lo_x < hi_yz) & (hi_yz < hi_x)))
    raise ValueError(f"unknown form {form!r}")


@dataclass(frozen=True)
class IdentityResiduals:
    """Residuals of the eigen row equations and the derived identities."""

    r: float
    rows_max: float
    identities: tuple[float, ...]
    identities_max: float
    middle_deviation_max: float  # the middle-row residual of the lifted pair


class ZStack(DigraphStack):
    """Z_n(x,y,z,a) evaluated for a (B, 4) stack `xyza` at one order n >= 5
    on the quotient vertices (1, 2, middle, n-1, n); every Z-family consumer
    reads its columns.

    `a` is Z_5, `perron` and `w` are the quotient's Perron pairs; `adj`,
    `labels`, `counts`, `beta`, `certified` and `certificates` are those of
    (Z_5, w), the last three equal to the lift's (the middle class is a tied
    block).  Also `r`, `efficient`; the `sinks` and the `sink_present`,
    `sink_vertex` (3 for the middle class) and `agrees` columns of the sink
    characterization; `identities` (see `identity_stack`); and `cell_tables`.
    `report(i)` is row i at order n (`lift`); a one-point reader takes row
    0 of the columns, as the CLI's `z` does.
    """

    def __init__(self, n: int, xyza, eps_rel: float = DEFAULT_EPS_REL) -> None:
        if operator.index(n) < 5:
            raise ValueError("requires n >= 5")
        self.n, self.xyza = n, _positive_stack(xyza)
        a = z_stack(5, self.xyza)
        perron = perron_stack(a * [1, 1, n - 4, 1, 1])  # the quotient
        super().__init__(a, perron.w, eps_rel)
        self.perron, self.r = perron, perron.r
        self.sinks = ~self.adj.any(axis=2)
        self.sink_present = self.sinks.any(axis=1)
        self.sink_vertex = np.where(self.sink_present, np.array(
            [1, 2, 3, n - 1, n], dtype=object)[self.sinks.argmax(axis=1)], None)
        self.efficient = self.counts == 1
        self.agrees = self.efficient != self.sink_present
        self.identities = identity_stack(n, self.xyza, self.r, self.w)
        self.__dict__.update(cell_tables(self.xyza))  # predicted .. exception

    @property
    def members(self) -> np.ndarray:
        """The quotient vertex (0 to 4) of each vertex of Z_n."""
        return np.r_[0, 1, np.full(self.n - 4, 2), 3, 4]

    def lift(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """The points `rows` (an index list, mask or slice) at order n: their
        Z_n and Perron vectors, w_3 repeated over the middle class."""
        return z_stack(self.n, self.xyza[rows]), self.w[rows][:, self.members]

    def report(self, i: int) -> EfficiencyReport:
        """Row i's report on its lift, with the quotient's Perron pair."""
        rep = DigraphStack(*self.lift([i]), self.eps_rel).report(0)
        return replace(rep, perron=replace(self.perron[i], w=rep.w))

    def middle_residual(self) -> np.ndarray:
        """|(Z_n w)_j - r w_3| for the lifted pair, the same on every middle
        row j: those rows are all ones, so (Z_n w)_j is the sum of the lifted
        w, which needs O(B n) memory and no order-n matrix."""
        return np.abs(self.w[:, self.members].sum(axis=1) - self.r * self.w[:, 2])


def eigen_identity_residuals(p: ZParams) -> IdentityResiduals:
    """The eigenvector identities of the family at the Perron pair of p: the max residual of
    the row equations of (Z - rI)w = 0, the ten identities of `identity_stack` (each vanishes
    for an exact eigenpair) and `ZStack.middle_residual`."""
    s = ZStack(p.n, [p.xyza])
    identities = tuple(s.identities[0].tolist())
    return IdentityResiduals(s.r.item(0), s.perron.residual.item(0), identities,
                             max(map(abs, identities)), s.middle_residual().item())


def _coefficients(t: np.ndarray, i, j, l) -> np.ndarray:
    """The coefficients d_ijl = a_il - a_ij a_jl, row i of Z_5 less a_ij times row j, as (..., B)
    columns at the broadcast index arrays i, j, l of a batch-minor (5, 5, B) stack t of Z_5.
    A product is taken against the parameter, as a_ij / a_lj where l < j, so y / a rounds
    once, not as y * fl(1 / a); at the cells' power-of-two points both forms are exact."""
    return t[i, l] - np.where((l < j)[..., None], t[i, j] / t[l, j], t[i, j] * t[j, l])


def identity_stack(n: int, xyza: np.ndarray, r: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (B, 10) identities of `eigen_identity_residuals` for Perron pairs (r, w) over the
    quotient vertices of a (B, 4) stack of (x, y, z, a) at order n.  Identity (i, j), for each
    pair i < j in `np.triu_indices` order, is row i less a_ij times row j of (Q - rI)w = 0:
    r (a_ij w_j - w_i) + sum_l d_ijl c_l w_l, c the class sizes, added over l in order."""
    (i, j), t = np.triu_indices(5, 1), np.ascontiguousarray(z_stack(5, xyza).transpose(1, 2, 0))
    w = np.ascontiguousarray(w.T)
    out = r * (t[i, j] * w[j] - w[i])
    for l, c in enumerate([1, 1, n - 4, 1, 1]):
        out = out + _coefficients(t, i, j, l) * c * w[l]
    return out.T


def predicted_edges(p: ZParams) -> set[tuple[int, int]]:
    """Edges guaranteed by p's order cell alone: the row-dominance edges of
    `_cell_tables`, lifted over the middle class.  Up to twelve are among {1,
    2, n-1, n}, and up to eight join those vertices to every middle vertex.
    """
    if p.n < 5:
        raise ValueError("requires n >= 5")
    members = [(1,), (2,), range(3, p.n - 1), (p.n - 1,), (p.n,)]  # of each quotient vertex
    predicted = cell_tables(np.array([p.xyza]))["predicted"][0]
    return {(u, v) for i, j in np.argwhere(predicted).tolist()
            for u in members[i] for v in members[j]}


# (v, relation): with the relation, edge (3, v) forbids edge (v, 3); one
# clause and its eight images.
_FORBIDDEN_REVERSE = _compile(*((v, text) for (v,), text in _orbit([((2,), "a < z <= 1")])))


def forbidden_reverse_edges(p: ZParams, G: EfficiencyDigraph) -> list[str]:
    """Conditional non-edge checks; returns violations (expected empty).

    Each clause says: if an edge from vertex 3 toward a corner vertex is
    present and the stated strict parameter relation holds, the reverse
    edge cannot also be present (a ratio tie there would force an
    impossible cancellation in the corresponding identity).  The clauses
    holding at p are its `cell_tables` row, read in clause order 2, 1, n, n-1.
    """
    if not 5 <= p.n == G.n:
        raise ValueError(f"requires n >= 5 and a digraph of order n; got n = {p.n}, order {G.n}")
    forbidden = cell_tables(np.array([p.xyza]))["forbidden"][0, 2]  # the pairs (3, v)
    corners = [v for q, v in ((1, 2), (0, 1), (4, p.n), (3, p.n - 1)) if forbidden[q]]
    return [f"edge {(3, v)} with relation forbids {(v, 3)}"
            for v in corners if G.has_edge(3, v) and G.has_edge(v, 3)]


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


_CATALOG_RELATIONS = _compile(*((row, row.relation) for row in CYCLE_CATALOG))


def _claims(m: CatalogRow) -> list[tuple[str, tuple[int, int]]]:
    """(kind, edge) for each edge the row claims: its cycle edges, then its extra edges."""
    return [*(("cycle", (u, v)) for c in m.cycles for u, v in zip(c, c[1:] + c[:1])),
            *(("extra", edge) for edge in m.extra_edges)]


# --- per-cell audit tables ---------------------------------------------------


@cache
def _cell_tables() -> tuple[np.ndarray, np.ndarray]:
    """Every order cell's tables, the same at every order n >= 5: the (541,
    4, 5, 5) tables over the quotient vertices (1, 2, middle, n-1, n) of the
    predicted edges, the forbidden-reverse pairs, the claimed edges and, in
    row [3, 0], the sink rows; and the (541,) labels of the first
    `_REGION_EXCEPTIONS` clause holding, or None.

    An edge (i, j) is predicted where every coefficient of identity (i, j) is >= 0
    (`_coefficients`): row i dominates a_ij times row j of Z_5, so (Q w)_i >= a_ij (Q w)_j
    for every positive w, Q being Z_5 with column 3 scaled by n - 4, and w_i / w_j >= a_ij
    at the Perron pair.  Each coefficient compares two of 1, x, y, z, a, so its sign holds on a
    whole cell; it is read at the cell's point, each parameter at 2 ** (rank - rank of 1)."""
    quotient = {1: 0, 2: 1, 3: 2, -2: 3, -1: 4}  # from vertex codes
    tables = np.zeros((541, 4, 5, 5), dtype=np.int8)
    a = z_stack(5, np.array([[2.0 ** (r - c[0]) for r in c[1:]] for c in order_cells()]))
    d = _coefficients(a.transpose(1, 2, 0), *np.ogrid[:5, :5, :5])  # d[i, j, l], batch-minor
    tables[:, 0] = (d >= 0).all(axis=2).transpose(2, 0, 1) & ~np.eye(5, dtype=bool)
    for k, (relations, pairs) in enumerate((
        (_FORBIDDEN_REVERSE, [[(3, v)] for v in _FORBIDDEN_REVERSE.labels]),
        (_CATALOG_RELATIONS, [[edge for _, edge in _claims(m)] for m in CYCLE_CATALOG]),
        (_CATALOG_RELATIONS, [[(1, m.vertex)] * (m.kind == "sink") for m in CYCLE_CATALOG]),
    ), start=1):
        for hit, row_pairs in zip(relations.hits.T, pairs):  # each relation row
            for u, v in row_pairs:
                tables[hit, k, quotient[u], quotient[v]] += 1
    return tables, _REGION_EXCEPTIONS.first(np.arange(541))


def cell_tables(xyza: np.ndarray) -> dict[str, np.ndarray]:
    """Each point's order-cell tables over the quotient vertices, for a (B, 4)
    stack of (x, y, z, a) at any order n >= 5: its cell's row of the one table.

    `predicted` (B, 5, 5) masks `predicted_edges`; `forbidden` counts the
    `_FORBIDDEN_REVERSE` pairs (3, v) that hold; `claimed` counts the edges
    the matching `CYCLE_CATALOG` rows claim; `sink_rows` (B, 5) counts their
    sink rows by vertex; `guaranteed` and `exception` are `guarantee_n5plus`'s.
    """
    index = _cell_rows(xyza)
    t, exception = (table[index] for table in _cell_tables())
    # batch-minor, as the `ZStack` edge tensors they are read against
    t = np.ascontiguousarray(t.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    return {"predicted": t[:, 0] > 0, "forbidden": t[:, 1], "claimed": t[:, 2],
            "sink_rows": t[:, 3, 0], "exception": exception,
            "guaranteed": np.equal(exception, None)}
