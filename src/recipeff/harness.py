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
desk scale with fixed seeds.  One walkthrough step is expected to fail: the
bundled reference data marks the conjugate's Perron vector inefficient,
while the computed digraph is strongly connected.  See the README.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    ReciprocalMatrix,
    make_reciprocal,
    pareto_dominates,
    perron,
    random_reciprocal,
    random_reciprocal_stack,
)
from .digraph import (
    DEFAULT_EPS_REL,
    EfficiencyReport,
    analyze,
    analyze_stack,
    has_no_source,
)
from .extensions import (
    _conjugate,
    _ranks_kept,
    conjugated_extension,
    constant_row_sum_extension,
    extension_source_scan,
    is_extension,
    row_sums,
    well_behaved_type_I,
)
from .zfamily import (
    ZParams,
    ZPoint,
    evaluate_z_stack,
    forbidden_reverse_edges,
    guarantee_a1,
    guarantee_n4,
    guarantee_n5plus,
    predicted_edges,
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

    rep = analyze(Bp_ref, eps_rel=eps_rel)
    step("example1.bprime_perron_inefficient", not rep.efficient,
         f"reference verdict inefficient; computed efficient={rep.efficient}")

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
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def sweep_csv_row(pt: ZPoint) -> str:
    """The point's `SWEEP_CSV_HEADER` attributes: n..a of `pt.p`, the rest of `pt`."""
    names = SWEEP_CSV_HEADER.split(",")
    cells = [getattr(pt.p, k) for k in names[:5]] + [getattr(pt, k) for k in names[5:]]
    return ",".join(map(_csv_cell, cells))


def grid_sweep(
    n: int,
    axis_values=DEFAULT_AXES,
    eps_rel: float = DEFAULT_EPS_REL,
) -> list[ZPoint]:
    """Evaluate every (x,y,z,a) in the Cartesian grid, lexicographically.

    `SWEEP_CSV_HEADER` and `sweep_csv_row` write the points as CSV.
    """
    if n < 5:
        raise ValueError("grid sweep requires n >= 5")
    axes = tuple(float(v) for v in axis_values)
    if not axes or not all(0 < v < np.inf for v in axes):
        raise ValueError("axis values must be positive and finite")
    grid = [ZParams(n, *xyza) for xyza in itertools.product(axes, repeat=4)]
    return list(evaluate_z_stack(grid, eps_rel))


# --- verification suite ----------------------------------------------------


@dataclass(frozen=True)
class VerificationSummary:
    suite: str
    checks: int
    failures: tuple[tuple[str, str], ...]
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.failures


ALL_EXCEPTION_LABELS = frozenset(
    f"T{k}{c}" for k in (5, 6, 7, 8) for c in ("(i)", "(ii)", "(iii)")
)


class _Count:
    """A count-style check; calling it gives (passed, detail).

    Instances come from `add(instance, number bad)` and, on the call, from
    the lazy `outcomes` pairs.  A failing detail names the first bad
    instance after the filled-in `template`, so the line alone replays it.
    """

    def __init__(self, template: str, outcomes=()) -> None:
        self.template, self.outcomes = template, outcomes
        self.total, self.bad, self.first = 0, 0, None

    def add(self, instance: str, nb_bad: int | bool) -> None:
        self.total += 1
        self.bad += int(nb_bad)
        if nb_bad and self.first is None:
            self.first = instance

    def __call__(self) -> tuple[bool, str]:
        for instance, nb_bad in self.outcomes:
            self.add(instance, nb_bad)
        detail = self.template.format(bad=self.bad, total=self.total)
        if self.bad:
            detail += f"; first: {self.first}"
        return self.bad == 0, detail


# per-point audits of the n = 5, 6, 7 grids: (check id, violations at a point)
_GRID_AUDITS = (
    ("edges.guaranteed_present", lambda pt: not all(
        pt.report.digraph.has_edge(i, j) for i, j in predicted_edges(pt.p))),
    ("edges.no_forbidden_reverse",
     lambda pt: len(forbidden_reverse_edges(pt.p, pt.report.digraph))),
    ("identities.residuals", lambda pt: pt.identities.identities_max > 1e-9 * pt.r),
    ("identities.middle_collapse",
     lambda pt: pt.identities.middle_deviation_max > 1e-10 * pt.report.w[2]),
    ("tables.claims", lambda pt: len(pt.table_violations)),
)


def _certificate_fails(rep: EfficiencyReport) -> bool:
    cert = rep.certificate
    return cert is None or not pareto_dominates(rep.A, rep.w, cert)


def _grid_checks(eps_rel: float, certs: _Count) -> dict:
    """One pass over the Z-family grids; the grid checks' runs by id, in order.

    Each grid is evaluated as one stack; each point is read by every check
    and dropped.  The n = 5 and 6 grids feed the sweep checks and the
    inefficient points' certificates (`certs`); the n = 5, 6 and 7 grids
    feed `_GRID_AUDITS`.
    """
    runs: dict = {}
    labeled = {(n, eff): 0 for n in (5, 6) for eff in (True, False)}
    seen: set[str] = set()
    for n in (5, 6):
        runs[f"sink_characterization.grid_n{n}"] = _Count(
            "{bad} of {total} grid points disagree")
        runs[f"region.soundness_n{n}"] = _Count("{bad} guaranteed-but-inefficient points")
        runs[f"region.exceptions_one_sided_n{n}"] = lambda n=n: (
            labeled[n, True] > 0 and labeled[n, False] > 0,
            f"exception labels cover {labeled[n, False]} inefficient and "
            f"{labeled[n, True]} efficient points (guarantee is one-way)",
        )
    runs["region.exception_labels_nonvacuous"] = lambda: (
        seen == ALL_EXCEPTION_LABELS, f"labels hit: {sorted(seen)}")
    for cid, _ in _GRID_AUDITS:
        runs[cid] = _Count("{bad} violations")
    for n in (5, 6, 7):
        grid = [ZParams(n, *xyza) for xyza in itertools.product(DEFAULT_AXES, repeat=4)]
        for pt in evaluate_z_stack(grid, eps_rel):
            where = f"ZParams{(n, *pt.p.xyza)}"
            for cid, violations in _GRID_AUDITS:
                runs[cid].add(where, violations(pt))
            if n == 7:
                continue
            runs[f"sink_characterization.grid_n{n}"].add(where, not pt.agrees)
            runs[f"region.soundness_n{n}"].add(where, pt.guaranteed and not pt.efficient)
            if pt.exception is not None:
                labeled[n, pt.efficient] += 1
                seen.add(pt.exception)
            if not pt.efficient:
                certs.add(where, _certificate_fails(pt.report))
    return runs


def _seeded(count: int, orders: int, seed: int, eps_rel: float, is_bad):
    """(replay call, bad) for random_reciprocal(3 + k % orders, seed + k), k < count.

    `is_bad` reads the matrix's Perron `analyze` report.  The matrices of
    each order are evaluated as one stack; the pairs come in k order.
    """
    bad = [False] * count
    for n in range(3, 3 + orders):
        ks = range(n - 3, count, orders)
        stack = random_reciprocal_stack(n, [seed + k for k in ks])
        for k, rep in zip(ks, analyze_stack(stack, eps_rel=eps_rel)):
            bad[k] = is_bad(rep)
    for k in range(count):
        yield f"random_reciprocal({3 + k % orders}, seed={seed + k})", bad[k]


def _random_extensions(eps_rel: float):
    for b in range(20):
        base = f"random_reciprocal({3 + b % 6}, seed={2000 + b})"
        scan = extension_source_scan(random_reciprocal(3 + b % 6, seed=2000 + b),
                                     50, seed=3000 + b, eps_rel=eps_rel)
        for k in range(scan.samples):
            yield (f"sample {k} of extension_source_scan({base}, 50, seed={3000 + b})",
                   k in scan.failures)


def _hamiltonian_disagrees(rep: EfficiencyReport) -> bool:
    return rep.efficient != (rep.hamiltonian is not None)


def verify_paper_suite(eps_rel: float = DEFAULT_EPS_REL) -> VerificationSummary:
    """Run every bundled check; failures are reported, never thrown.

    The suite is a table of (check_id, run) entries in report order; each
    run returns (passed, detail).
    """
    t0 = time.perf_counter()
    rep3 = analyze(make_reciprocal(np.array(COUNTEREXAMPLE_3X3_ROWS), mode="validate"),
                   np.array(COUNTEREXAMPLE_3X3_W), eps_rel)
    G3 = rep3.digraph
    certificates = _Count("{bad} of {total} certificates failed")
    certificates.add("the 3x3 counterexample", _certificate_fails(rep3))
    triples = np.exp(np.random.default_rng(5000).uniform(
        -np.log(9.0), np.log(9.0), size=(1000, 3))).tolist()
    table = [
        *((s.check_id, lambda s=s: (s.passed, s.detail))
          for s in example_walkthrough(eps_rel)),
        ("counterexample3x3.structure", lambda: (
            G3.edges == {(2, 1), (3, 1), (3, 2)} and rep3.sources == (3,),
            f"edges {sorted(G3.edges)}, sources {rep3.sources}")),
        ("no_source.random_matrices", _Count(
            "{bad} of {total} random matrices violated",
            _seeded(1000, 6, 1000, eps_rel, lambda rep: not has_no_source(rep.digraph)))),
        ("no_source.random_extensions", _Count(
            "{bad} of {total} random extensions violated", _random_extensions(eps_rel))),
        *_grid_checks(eps_rel, certificates).items(),
        ("hamiltonian.equivalence", _Count(
            "{bad} of {total} random digraphs disagree",
            _seeded(200, 5, 4000, eps_rel, _hamiltonian_disagrees))),
        ("n4.forms_agree", _Count(
            "{bad} of {total} triples disagree",
            ((f"(x, y, z) = {tuple(t)}", guarantee_n4(*t, "six_cases")
              != guarantee_n4(*t, "region_complement")) for t in triples))),
        ("a1.slice_equality", _Count(
            "{bad} of {total} slice points disagree",
            ((f"ZParams{(5, x, y, z, 1.0)}",
              guarantee_a1(5, x, y, z).guaranteed_efficient
              != guarantee_n5plus(ZParams(5, x, y, z, 1.0)).guaranteed_efficient)
             for x, y, z in itertools.product(DEFAULT_AXES, repeat=3)))),
        ("certificates.sound", certificates),
    ]
    results = [(cid, bool(passed), detail)
               for cid, run in table for passed, detail in [run()]]
    failures = tuple((cid, detail) for cid, ok, detail in results if not ok)
    return VerificationSummary(
        suite="verify",
        checks=len(results),
        failures=failures,
        wall_time=time.perf_counter() - t0,
    )
