"""Acceptance gate: the thirteen checks this package is built to pass.

Each test covers one numbered criterion, prints a single
``criterion NN: PASS|FAIL`` line (shown with ``-s`` or on failure), and
asserts the same condition.  Tolerances are pinned here on purpose;
loosening one is a behavior change, not a cleanup.
"""

import itertools

import numpy as np
import pytest

from recipeff import (
    ZParams,
    build_digraph,
    conjugated_extension,
    constant_row_sum_extension,
    dominating_vector,
    eigen_identity_residuals,
    extension_source_scan,
    forbidden_reverse_edges,
    grid_sweep,
    guarantee_a1,
    guarantee_n4,
    guarantee_n5plus,
    hamiltonian_cycle,
    make_reciprocal,
    no_source_theorem_check,
    pareto_dominates,
    perron,
    predicted_edges,
    random_reciprocal,
    remove_index,
    row_sums,
    sources,
    strongly_connected,
    well_behaved_type_I,
    z_matrix,
)
from recipeff.harness import (
    ALL_EXCEPTION_LABELS,
    COUNTEREXAMPLE_3X3_ROWS,
    COUNTEREXAMPLE_3X3_W,
    DEFAULT_AXES,
    EXAMPLE_DIAG,
    EXAMPLE_EXTENSION_PERRON,
    EXAMPLE_REFERENCE_PERRON,
    EXAMPLE_ROW_SUM_GAP,
    example_base,
    example_conjugate_reference,
)


def conclude(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def base():
    return example_base()


@pytest.fixture(scope="module")
def bprime():
    return example_conjugate_reference()


@pytest.fixture(scope="module")
def records():
    return {n: grid_sweep(n) for n in (5, 6)}


@pytest.fixture(scope="module")
def zgrid():
    grids = {}
    for n in (5, 6, 7):
        pts = []
        for xyza in itertools.product(DEFAULT_AXES, repeat=4):
            p = ZParams(n, *xyza)
            A = z_matrix(p)
            w = perron(A).w
            G = build_digraph(A, w)
            pts.append((p, A, w, G, strongly_connected(G)[0]))
        grids[n] = pts
    return grids


@pytest.fixture(scope="module")
def random_pool():
    pool = []
    for k in range(1000):
        A = random_reciprocal(3 + k % 6, seed=1000 + k)
        w = perron(A).w
        pool.append((A, w, strongly_connected(build_digraph(A, w))[0]))
    return pool


@pytest.fixture(scope="module")
def extension_pool():
    pool = []
    for b in range(20):
        A = random_reciprocal(3 + b % 6, seed=2000 + b)
        rng = np.random.default_rng(3000 + b)
        span = np.log(9.0)
        for _ in range(50):
            col = np.exp(rng.uniform(-span, span, size=A.n))
            ext = np.ones((A.n + 1, A.n + 1))
            ext[: A.n, : A.n] = A.a
            ext[: A.n, A.n] = col
            ext[A.n, : A.n] = 1.0 / col
            B = make_reciprocal(ext, mode="validate")
            w = perron(B).w
            pool.append((B, w, strongly_connected(build_digraph(B, w))[0]))
    return pool


def test_criterion_01_base_perron_matches_reference(base):
    dev = np.max(np.abs(perron(base).w - np.array(EXAMPLE_REFERENCE_PERRON)))
    conclude(1, dev <= 5e-4, f"perron(B) vs 4-decimal reference, max |dev| = {dev:.2e} (tol 5e-4)")


def test_criterion_02_conjugate_matches_reference(base, bprime):
    d = np.array(EXAMPLE_DIAG)
    conj = base.a * d[:, None] / d[None, :]
    dev = np.max(np.abs(conj - bprime.a))
    conclude(2, dev <= 1e-3, f"D*B*D^-1 vs reference B', max |dev| = {dev:.2e} (tol 1e-3)")


def test_criterion_03_reference_efficiency_verdicts(bprime):
    w = perron(bprime).w
    perron_inefficient = not strongly_connected(build_digraph(bprime, w))[0]
    e5_efficient = strongly_connected(build_digraph(bprime, np.ones(5)))[0]
    rs = row_sums(bprime)
    gap_ok = (
        well_behaved_type_I(bprime)
        and abs((rs[0] - rs[-1]) - EXAMPLE_ROW_SUM_GAP) <= 1e-12
    )
    conclude(
        3,
        perron_inefficient and e5_efficient and gap_ok,
        f"B' Perron vector inefficient: {perron_inefficient} (reference says True), "
        f"e_5 efficient: {e5_efficient}, well-behaved with row-sum gap 5.79: {gap_ok}",
    )


def test_criterion_04_extension_pipeline(base, bprime):
    w_ext = perron(constant_row_sum_extension(bprime).B).w
    unit_dev = np.max(np.abs(w_ext - 1.0))

    A = conjugated_extension(base, np.array(EXAMPLE_DIAG))
    block_exact = np.array_equal(remove_index(A, 6).a, base.a)
    wa = perron(A).w
    perron_dev = np.max(np.abs(wa - np.array(EXAMPLE_EXTENSION_PERRON)))
    efficient = strongly_connected(build_digraph(A, wa))[0]
    conclude(
        4,
        unit_dev <= 1e-10 and block_exact and perron_dev <= 1e-9 and efficient,
        f"constant-row-sum Perron vs e_6: {unit_dev:.2e} (tol 1e-10); "
        f"A(6) == B exactly: {block_exact}; "
        f"perron(A) vs [1,1,1,1.5,2,0.5]: {perron_dev:.2e} (tol 1e-9); "
        f"efficient: {efficient}",
    )


def test_criterion_05_counterexample_digraph_structure():
    A = make_reciprocal(np.array(COUNTEREXAMPLE_3X3_ROWS))
    G = build_digraph(A, np.array(COUNTEREXAMPLE_3X3_W))
    ok = G.edges == {(2, 1), (3, 1), (3, 2)} and sources(G) == (3,)
    conclude(5, ok, f"edges = {sorted(G.edges)}, sources = {sources(G)}")


def test_criterion_06_no_source_property(random_pool, extension_pool):
    bad_matrices = sum(
        not no_source_theorem_check(random_reciprocal(3 + k % 6, seed=1000 + k))
        for k in range(1000)
    )
    bad_extensions = 0
    for b in range(20):
        A = random_reciprocal(3 + b % 6, seed=2000 + b)
        bad_extensions += len(extension_source_scan(A, 50, seed=3000 + b).failures)
    # the pooled fixtures must describe the same populations
    assert len(random_pool) == 1000 and len(extension_pool) == 1000
    conclude(
        6,
        bad_matrices == 0 and bad_extensions == 0,
        f"{bad_matrices}/1000 random matrices and {bad_extensions}/1000 "
        f"random extensions violate the no-source property",
    )


def test_criterion_07_sink_characterization_grids(records):
    bad = {n: int((~s.agrees).sum()) for n, s in records.items()}
    conclude(
        7,
        all(v == 0 for v in bad.values()),
        f"inefficient <-> sink disagreements: n=5: {bad[5]}/625, n=6: {bad[6]}/625",
    )


def test_criterion_08_region_soundness_and_labels(records):
    unsound = {n: int((s.guaranteed & ~s.efficient).sum()) for n, s in records.items()}
    seen = {label for s in records.values() for label in s.exception if label}
    refined = guarantee_n5plus(ZParams(5, 0.2, 2.0, 0.5, 1.5)).matched_exception
    conclude(
        8,
        all(v == 0 for v in unsound.values())
        and seen == set(ALL_EXCEPTION_LABELS)
        and refined == "T5(i)",
        f"guaranteed-but-inefficient: n=5: {unsound[5]}, n=6: {unsound[6]}; "
        f"labels hit: {len(seen)}/12; (0.2,2,0.5,1.5) -> {refined}",
    )


def test_criterion_09_edge_predictions_subsume(zgrid):
    missing = 0
    forbidden = 0
    for pts in zgrid.values():
        for p, _, _, G, _ in pts:
            missing += len(predicted_edges(p) - G.edges)
            forbidden += len(forbidden_reverse_edges(p, G))
    conclude(
        9,
        missing == 0 and forbidden == 0,
        f"{missing} predicted edges absent, {forbidden} forbidden reverse "
        f"edges present (1875 grid points)",
    )


def test_criterion_10_eigenvector_identities(zgrid):
    worst_ident = 0.0
    worst_middle = 0.0
    for pts in zgrid.values():
        for p, _, w, _, _ in pts:
            res = eigen_identity_residuals(p)
            worst_ident = max(worst_ident, res.identities_max / (1e-9 * res.r))
            worst_middle = max(
                worst_middle, res.middle_deviation_max / (1e-10 * w[2])
            )
    conclude(
        10,
        worst_ident <= 1.0 and worst_middle <= 1.0,
        f"identity residuals at {worst_ident:.2e} of the 1e-9*r budget, "
        f"middle collapse at {worst_middle:.2e} of the 1e-10*w_3 budget",
    )


def test_criterion_11_hamiltonian_equivalence():
    bad = 0
    for k in range(200):
        A = random_reciprocal(3 + k % 5, seed=4000 + k)
        G = build_digraph(A, perron(A).w)
        if strongly_connected(G)[0] != (hamiltonian_cycle(G) is not None):
            bad += 1
    conclude(11, bad == 0, f"{bad}/200 digraphs where strong connectivity and Hamiltonicity differ")


def test_criterion_12_n4_and_a1_equivalences():
    rng = np.random.default_rng(5000)
    triples = np.exp(rng.uniform(-np.log(9.0), np.log(9.0), size=(1000, 3)))
    n4_bad = sum(
        guarantee_n4(x, y, z, "six_cases")
        != guarantee_n4(x, y, z, "region_complement")
        for x, y, z in triples
    )
    a1_bad = sum(
        guarantee_a1(5, x, y, z).guaranteed_efficient
        != guarantee_n5plus(ZParams(5, x, y, z, 1.0)).guaranteed_efficient
        for x, y, z in itertools.product(DEFAULT_AXES, repeat=3)
    )
    conclude(
        12,
        n4_bad == 0 and a1_bad == 0,
        f"n=4 form disagreements: {n4_bad}/1000; a=1 slice disagreements: {a1_bad}/125",
    )


def test_criterion_13_certificates_for_all_inefficient_instances(
    random_pool, extension_pool, zgrid
):
    instances = [
        (
            make_reciprocal(np.array(COUNTEREXAMPLE_3X3_ROWS)),
            np.array(COUNTEREXAMPLE_3X3_W),
        )
    ]
    instances += [(A, w) for A, w, strong in random_pool if not strong]
    instances += [(B, w) for B, w, strong in extension_pool if not strong]
    for n in (5, 6):
        instances += [
            (A, w) for _, A, w, _, strong in zgrid[n] if not strong
        ]
    bad = sum(
        1
        for A, w in instances
        if (cert := dominating_vector(A, w)) is None
        or not pareto_dominates(A, w, cert)
    )
    conclude(
        13,
        bad == 0,
        f"{bad} of {len(instances)} inefficient instances lack a "
        f"dominating certificate",
    )
