"""Grid sweeps, the bundled worked example, and the verification suite.

The worked example is a 5x5 base matrix whose Perron ranking is scrambled
by a constant-row-sum extension: conjugating by a diagonal D flattens the
third row, extending to constant row sums forces an all-ones Perron
vector, and conjugating back yields an order-6 extension of the base whose
Perron vector is (1/D, 1) up to scale.  `example_walkthrough` replays the
whole chain against bundled reference values.

`verify_paper_suite` runs the walkthrough plus every structural claim the
library encodes (no-source property, sink characterization, region
soundness, guaranteed edges, eigenvector identities, cycle catalog,
Hamiltonian equivalence, predicate equivalences, certificate soundness) at
desk scale with fixed seeds.  The checks on random instances are a table
(`_RANDOM_CHECKS`) run as one plan: the rows of one order, over all of them,
are one `DigraphStack`.  Certificate soundness reads the grids' `ZStack`s and
the 3x3 counterexample's one-row `DigraphStack`, so a failed certificate is
counted, not thrown.  The n = 4 and a = 1 predicates are checked on every
order cell of the a = 1 slice (`_slice_points`).  One walkthrough step is
expected to fail: the bundled reference data marks the conjugate's Perron
vector inefficient, while the computed digraph is strongly connected; its
detail gives the margin and the reference's likely source.  See the README.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ReciprocalMatrix,
    make_reciprocal,
    perron,
    random_reciprocal,
    random_reciprocal_stack,
)
from .digraph import (
    DEFAULT_EPS_REL,
    DigraphStack,
    EfficiencyDigraph,
    _scc_counts,
    analyze,
    hamiltonian_cycles,
    has_no_source_stack,
    sinks,
    sources,
)
from .extensions import (
    _conjugate,
    _ranks_kept,
    _sampled_extensions,
    conjugated_extension,
    constant_row_sum_extension,
    is_extension,
    row_sums,
    well_behaved_type_I,
)
from .zfamily import (
    _A1_EXCEPTIONS,
    _REGION_EXCEPTIONS,
    ZStack,
    _cell_rows,
    _n4_holds,
    cell_tables,
    order_cells,
)

DEFAULT_AXES = (0.25, 0.5, 1.0, 2.0, 4.0)

# --- bundled worked example ----------------------------------------------

EXAMPLE_BASE_ROWS = (
    (1.0, 1.0, 1.0, 0.9933, 2.5),
    (1.0, 1.0, 1.0, 0.6666, 1.0),
    (1.0, 1.0, 1.0, 0.6666, 0.5),
    (1.0067, 1.5, 1.5, 1.0, 0.75),
    (0.4, 1.0, 2.0, 1.3333, 1.0),
)
EXAMPLE_DIAG = (0.5, 0.5, 0.5, 1.0 / 3.0, 0.25)
# reference values the pipeline should reproduce (4-decimal precision)
EXAMPLE_REFERENCE_PERRON = (1.0, 0.7110, 0.6325, 0.8555, 0.8258)
EXAMPLE_CONJUGATE_ROWS = (
    (1.0, 1.0, 1.0, 1.49, 5.0),
    (1.0, 1.0, 1.0, 1.0, 2.0),
    (1.0, 1.0, 1.0, 1.0, 1.0),
    (1.0 / 1.49, 1.0, 1.0, 1.0, 1.0),
    (0.2, 0.5, 1.0, 1.0, 1.0),
)
EXAMPLE_ROW_SUM_GAP = 5.79
EXAMPLE_EXTENSION_PERRON = (1.0, 1.0, 1.0, 1.5, 2.0, 0.5)

COUNTEREXAMPLE_3X3_ROWS = ((1.0, 1.0, 2.0), (1.0, 1.0, 1.0), (0.5, 1.0, 1.0))
COUNTEREXAMPLE_3X3_W = (1.0, 2.0, 3.0)


def example_base() -> ReciprocalMatrix:
    """The base matrix (printed reciprocals are rounded; symmetrized)."""
    return make_reciprocal(np.array(EXAMPLE_BASE_ROWS), mode="symmetrize")


def example_conjugate_reference() -> ReciprocalMatrix:
    """The conjugate D B D^{-1} as given in the reference data (exact)."""
    return make_reciprocal(np.array(EXAMPLE_CONJUGATE_ROWS), mode="validate")


@dataclass(frozen=True)
class WalkthroughStep:
    check_id: str
    passed: bool
    detail: str


def example_walkthrough(eps_rel: float = DEFAULT_EPS_REL) -> list[WalkthroughStep]:
    """Replay the worked example end to end, one pass/fail step per claim."""
    steps: list[WalkthroughStep] = []

    def step(check_id: str, passed: bool, detail: str) -> None:
        steps.append(WalkthroughStep(check_id, bool(passed), detail))

    B = example_base()
    d = np.array(EXAMPLE_DIAG)
    ref_w = np.array(EXAMPLE_REFERENCE_PERRON)
    Bp_ref = example_conjugate_reference()

    w = perron(B).w
    err = float(np.max(np.abs(w - ref_w)))
    step("example1.base_perron_matches", err <= 5e-4,
         f"max component deviation {err:.2e} (tol 5e-4)")

    err = float(np.max(np.abs(_conjugate(B, d).a - Bp_ref.a)))
    step("example1.conjugate_matches", err <= 1e-3,
         f"max entry deviation {err:.2e} (tol 1e-3)")

    # B''s own Perron vector is far from every tie; the reference verdict is
    # the base's read against B' without conjugating by D (its digraph alone)
    rep, unconj = analyze(Bp_ref, eps_rel=eps_rel), DigraphStack(Bp_ref.a[None], w[None], eps_rel)
    margin = np.abs(np.log(rep.w[:, None] / rep.w) - np.log(Bp_ref.a))[~np.eye(5, dtype=bool)]
    G = EfficiencyDigraph(unconj.adj[0], unconj.eps_rel)
    step("example1.bprime_perron_inefficient", not rep.efficient,
         f"reference verdict inefficient; computed efficient={rep.efficient} (min log margin "
         f"{margin.min():.3f}); the base Perron vector read unconjugated gives "
         f"{unconj.counts[0]} blocks, sources {sources(G)}, sinks {sinks(G)}")

    rep_ones = analyze(Bp_ref, w=np.ones(5), eps_rel=eps_rel)
    step("example1.ones_vector_efficient", rep_ones.efficient,
         f"computed efficient={rep_ones.efficient}")

    r = row_sums(Bp_ref)
    gap = float(r[0] - r[-1])
    step("example1.well_behaved",
         well_behaved_type_I(Bp_ref) and abs(gap - EXAMPLE_ROW_SUM_GAP) <= 1e-12,
         f"first/last row-sum gap {gap!r} (reference {EXAMPLE_ROW_SUM_GAP})")

    ext = constant_row_sum_extension(Bp_ref)
    ones_eff = analyze(ext.B, w=np.ones(6), eps_rel=eps_rel).efficient
    step("example1.extension_unit_perron",
         ext.perron_check <= 1e-10 and ones_eff,
         f"row-sum residual {ext.perron_check:.2e}, all-ones efficient={ones_eff}")

    A = conjugated_extension(B, d)
    step("example1.conjugated_restores_base", is_extension(A, B),
         "leading block comparison is exact")

    rep_A = analyze(A, eps_rel=eps_rel)
    err = float(np.max(np.abs(rep_A.w - np.array(EXAMPLE_EXTENSION_PERRON))))
    step("example1.conjugated_perron_matches", err <= 1e-9,
         f"max component deviation {err:.2e} (tol 1e-9)")

    step("example1.conjugated_efficient",
         rep_A.efficient, "computed on the order-6 digraph")

    preserved, ra, rb = _ranks_kept(B, A, w, rep_A.w)
    step("example1.ranking_changes",
         not preserved and ra == (1, 4, 5, 2, 3) and rb == (3, 3, 3, 2, 1),
         f"base ranks {ra}, extension-prefix ranks {rb}")

    return steps


# --- grid sweep ------------------------------------------------------------

SWEEP_CSV_HEADER = "n,x,y,z,a,r,efficient,guaranteed,exception,sink_present,sink_vertex,agrees"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def sweep_csv(s: ZStack) -> list[str]:
    """The `SWEEP_CSV_HEADER` line and one line per point, written column by column."""
    columns = [np.full(len(s), s.n), *s.xyza.T,
               *(getattr(s, k) for k in SWEEP_CSV_HEADER.split(",")[5:])]
    cells = [np.where(c, "true", "false").tolist() if c.dtype == bool
             else list(map(_csv_cell, c.tolist())) for c in columns]
    return [SWEEP_CSV_HEADER, *map(",".join, zip(*cells))]


def grid_sweep(
    n: int,
    axis_values=DEFAULT_AXES,
    eps_rel: float = DEFAULT_EPS_REL,
) -> ZStack:
    """Evaluate every (x,y,z,a) in the Cartesian grid, lexicographically, as
    one stack; `sweep_csv` writes it as CSV."""
    if operator.index(n) < 5:
        raise ValueError("grid sweep requires n >= 5")
    axes = tuple(float(v) for v in axis_values)
    if not axes or not all(0 < v < np.inf for v in axes):
        raise ValueError("axis values must be positive and finite")
    if any(1 / v == np.inf for v in axes):
        raise ValueError("axis values must be positive and finite, and so must their "
                         f"reciprocals; got {min(axes)!r}")
    return ZStack(n, list(itertools.product(axes, repeat=4)), eps_rel)


# --- verification suite ----------------------------------------------------


@dataclass(frozen=True)
class VerificationSummary:
    suite: str
    checks: int
    failures: tuple[tuple[str, str], ...]
    wall_time: float


ALL_EXCEPTION_LABELS = frozenset(_REGION_EXCEPTIONS.labels)


def _tally(check_id: str, template: str, bad: np.ndarray, name) -> WalkthroughStep:
    """The record of a count check whose instance i has bad[i] violations (or a
    flag): `template` filled with the bad and total counts, and on a failure
    the first bad instance's `name(i)`, so the line alone replays it."""
    detail, first = template.format(bad=int(bad.sum()), total=len(bad)), np.flatnonzero(bad)
    return WalkthroughStep(check_id, not first.size,
                           f"{detail}; first: {name(int(first[0]))}" if first.size else detail)


_GRID = np.array(list(itertools.product(DEFAULT_AXES, repeat=4)))

# audits of the n = 5, 6, 7 grids: (check id, violations per point of a grid's stack)
_GRID_AUDITS = (
    ("edges.guaranteed_present", lambda s: (s.predicted & ~s.adj).any(axis=(1, 2))),
    ("edges.no_forbidden_reverse",
     lambda s: (s.forbidden * (s.adj & s.adj.swapaxes(1, 2))).sum(axis=(1, 2))),
    ("identities.residuals", lambda s: np.abs(s.identities).max(axis=1) > 1e-9 * s.r),
    ("identities.middle_collapse", lambda s: s.middle_residual() > 1e-10 * s.w[:, 2]),
    # absent claimed edges, and on inefficient points the sink rows whose
    # vertex is not the lone quotient sink
    ("tables.claims", lambda s: (s.claimed * ~s.adj).sum(axis=(1, 2)) + ~s.efficient * (
        s.sink_rows * ~(s.sinks & (s.sinks.sum(axis=1, keepdims=True) == 1))).sum(axis=1)),
)


def _slice_points() -> np.ndarray:
    """A point in each of the 75 order cells of the a = 1 slice (a ranks with 1), in
    `order_cells()` order: (x, y, z, a) at 2 ** (rank - rank of 1)."""
    return np.array([[2.0 ** (r - c[0]) for r in c[1:]] for c in order_cells() if c[4] == c[0]])


def _grid_point(ns):
    """The namer of point i of the grids of orders `ns`, laid end to end."""
    return lambda i: f"ZParams{(ns[i // len(_GRID)], *_GRID[i % len(_GRID)].tolist())}"


def _grid_checks(eps_rel: float) -> tuple[list[WalkthroughStep], np.ndarray, np.ndarray]:
    """The n = 5, 6, 7 grids, each one `ZStack` read in turn: the grid checks'
    records in report order, and the failed-certificate flags (`~certified`)
    and `_grid_point((5, 6))` numbers of the inefficient n = 5 and 6 points,
    read on the quotient, whose certificate is the lift's (see `ZStack`).
    Each `_GRID_AUDITS` array is tallied over the three grids."""
    records, fails, points, audits, seen = [], [], [], [], set()
    for n in (5, 6, 7):
        s = ZStack(n, _GRID, eps_rel)
        audits.append([audit(s) for _, audit in _GRID_AUDITS])
        if n < 7:
            seen.update(s.exception.tolist())
            eff = int((~s.guaranteed & s.efficient).sum())
            ineff = int((~s.guaranteed & ~s.efficient).sum())
            records += [
                _tally(f"sink_characterization.grid_n{n}", "{bad} of {total} grid points disagree",
                       ~s.agrees, _grid_point([n])),
                _tally(f"region.soundness_n{n}", "{bad} guaranteed-but-inefficient points",
                       s.guaranteed & ~s.efficient, _grid_point([n])),
                WalkthroughStep(f"region.exceptions_one_sided_n{n}", eff > 0 and ineff > 0,
                                f"exception labels cover {ineff} inefficient and "
                                f"{eff} efficient points (guarantee is one-way)"),
            ]
            fails.append(~s.certified[~s.efficient])
            points.append(np.flatnonzero(~s.efficient) + (n - 5) * len(_GRID))
    seen.discard(None)
    records.append(WalkthroughStep("region.exception_labels_nonvacuous",
                                   seen == ALL_EXCEPTION_LABELS, f"labels hit: {sorted(seen)}"))
    records += [_tally(cid, "{bad} violations", np.concatenate(bad), _grid_point((5, 6, 7)))
                for (cid, _), bad in zip(_GRID_AUDITS, zip(*audits))]
    return records, np.concatenate(fails), np.concatenate(points)


def _seeded(count: int, orders: int, seed: int):
    """The count, draw and namer of instances k < count: k is row k // orders
    of the stack of order 3 + k % orders, drawn from seed + k % orders."""
    ats = [np.arange(i, count, orders) for i in range(orders)]
    return (count, lambda: [(random_reciprocal_stack(3 + i, len(at), seed + i), at)
                            for i, at in enumerate(ats)],
            lambda k: (f"random_reciprocal_stack({3 + k % orders}, {k // orders + 1}, "
                       f"seed={seed + k % orders})[{k // orders}]"))


def _extension_draw():
    """Instance 50 b + k, b < 20, is sample k of extension_source_scan(random_reciprocal(
    3 + b % 6, seed=2000 + b), 50, seed=3000 + b); each order's bases give one stack."""
    for n in range(3, 9):
        bs = np.arange(n - 3, 20, 6)
        bases = np.array([random_reciprocal(n, seed=2000 + b).a for b in bs])
        yield _sampled_extensions(bases, 50, 3000 + bs), (50 * bs[:, None] + np.arange(50)).ravel()


# the random-instance count checks, in report order: (check id, template, flags
# of a stack of the check's Perron digraphs, count, draw, namer), where `draw()`
# gives a stack per order and the instance number of each of its rows
_RANDOM_CHECKS = (
    ("no_source.random_matrices", "{bad} of {total} random matrices violated",
     lambda adj: ~has_no_source_stack(adj), *_seeded(1000, 6, 1000)),
    ("no_source.random_extensions", "{bad} of {total} random extensions violated",
     lambda adj: ~has_no_source_stack(adj), 1000, _extension_draw, lambda i: (
         f"sample {i % 50} of extension_source_scan(random_reciprocal({3 + i // 50 % 6}, "
         f"seed={2000 + i // 50}), 50, seed={3000 + i // 50})")),
    # strong connectivity disagrees with finding a Hamiltonian cycle
    ("hamiltonian.equivalence", "{bad} of {total} random digraphs disagree",
     lambda adj: (_scc_counts(adj)[0] == 1) != [c is not None for c in hamiltonian_cycles(adj)],
     *_seeded(200, 5, 4000)),
)


def _random_records(eps_rel: float) -> list[WalkthroughStep]:
    """The `_RANDOM_CHECKS` records as one plan: the rows of one order, over
    all the checks' draws, are one `DigraphStack` (one Perron solve and one
    digraph build per order), and each check's flags read its own rows."""
    ids, templates, flags, counts, draws, names = zip(*_RANDOM_CHECKS)
    drawn = [(c, a, at) for c, draw in enumerate(draws) for a, at in draw()]
    bad = [np.zeros(count, dtype=bool) for count in counts]
    for n in sorted({a.shape[-1] for _, a, _ in drawn}):
        cs, stacks, ats = zip(*(part for part in drawn if part[1].shape[-1] == n))
        adj = DigraphStack(np.concatenate(stacks), eps_rel=eps_rel).adj
        for c, at, rows in zip(cs, ats, np.split(adj, np.cumsum([len(a) for a in stacks])[:-1])):
            bad[c][at] = flags[c](rows)
    return list(map(_tally, ids, templates, bad, names))


def _suite_records(eps_rel: float) -> list[WalkthroughStep]:
    """The suite's `WalkthroughStep(check_id, passed, detail)` records, built
    in report order: the walkthrough's steps as they are, one record per
    one-off check, and one per count check, tallied by `_tally` from its
    array of flags in instance order.
    """
    c3 = DigraphStack(make_reciprocal(np.array(COUNTEREXAMPLE_3X3_ROWS), mode="validate").a[None],
                      np.array([COUNTEREXAMPLE_3X3_W]), eps_rel)
    G3 = EfficiencyDigraph(c3.adj[0], c3.eps_rel)
    grid, fails, points = _grid_checks(eps_rel)
    if c3.counts[0] > 1:  # the counterexample has a certificate only when inefficient
        fails, points = np.r_[~c3.certified, fails], np.r_[-1, points]
    *no_source, hamiltonian = _random_records(eps_rel)
    cells = _slice_points()
    return [
        *example_walkthrough(eps_rel),
        WalkthroughStep("counterexample3x3.structure",
                        G3.edges == {(2, 1), (3, 1), (3, 2)} and sources(G3) == (3,),
                        f"edges {sorted(G3.edges)}, sources {sources(G3)}"),
        *no_source,
        *grid,
        hamiltonian,
        _tally("n4.forms_agree", "{bad} of {total} order cells disagree",
               _n4_holds(cells[:, :3], "six_cases")
               != _n4_holds(cells[:, :3], "region_complement"),
               lambda i: f"(x, y, z) = {tuple(cells[i, :3].tolist())}"),
        # guarantee_a1's verdict against guarantee_n5plus's, the cell table's
        _tally("a1.slice_equality", "{bad} of {total} order cells disagree",
               np.equal(_A1_EXCEPTIONS.first(_cell_rows(cells)), None)
               != cell_tables(cells)["guaranteed"],
               lambda i: f"ZParams{(5, *cells[i].tolist())}"),
        _tally("certificates.sound", "{bad} of {total} certificates failed",
               fails, lambda i: "the 3x3 counterexample" if points[i] < 0
               else _grid_point((5, 6))(points[i])),
    ]


def verify_paper_suite(eps_rel: float = DEFAULT_EPS_REL) -> VerificationSummary:
    """Run every bundled check (`_suite_records`); failures are reported, never thrown."""
    t0 = time.perf_counter()
    checks = _suite_records(eps_rel)
    failures = tuple((s.check_id, s.detail) for s in checks if not s.passed)
    return VerificationSummary("verify", len(checks), failures, time.perf_counter() - t0)
