import ast
import hashlib
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from helpers import save_matrix, save_vector
from recipeff import cli, digraph, harness, zfamily
from recipeff.core import make_reciprocal, perron_stack, random_reciprocal
from recipeff.digraph import analyze
from recipeff.harness import (
    SWEEP_CSV_HEADER,
    SweepRecord,
    example_walkthrough,
    grid_sweep,
    sweep_csv_row,
    verify_paper_suite,
)
from recipeff.matio import (
    load_matrix,
    load_vector,
    report_to_dict,
    save_report,
)
from recipeff.zfamily import ZParams


# --- matio ---------------------------------------------------------------


def test_matrix_roundtrip_is_bit_exact(tmp_path):
    A = random_reciprocal(5, seed=31)
    path = tmp_path / "m.csv"
    save_matrix(A, path)
    assert np.array_equal(load_matrix(path).a, A.a)


def test_load_matrix_error_locations(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n0.5,oops\n")
    with pytest.raises(ValueError, match="row 2, column 2"):
        load_matrix(path)
    path.write_text("1,2\n0.5\n")
    with pytest.raises(ValueError, match="row 2 has 1 values, expected 2"):
        load_matrix(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_matrix(path)


def test_load_matrix_reciprocity_modes(tmp_path):
    path = tmp_path / "rounded.csv"
    path.write_text("1,0.9933\n1.0067,1\n")
    with pytest.raises(ValueError, match="reciprocity violation"):
        load_matrix(path)
    A = load_matrix(path, mode="symmetrize")
    assert A.a[1, 0] == 1.0 / 0.9933


def test_vector_roundtrip_row_and_column(tmp_path):
    v = np.array([1.0, 2.5, 1.0 / 3.0])
    row = tmp_path / "row.csv"
    save_vector(v, row)
    assert np.array_equal(load_vector(row), v)
    col = tmp_path / "col.csv"
    col.write_text("1\n2.5\n0.75\n")
    assert np.array_equal(load_vector(col), [1.0, 2.5, 0.75])
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,4\n")
    with pytest.raises(ValueError, match="single CSV row or column"):
        load_vector(bad)
    bad.write_text("1,-2,3\n")
    with pytest.raises(ValueError, match="positive"):
        load_vector(bad)


def test_report_dict_shape(tmp_path):
    A = make_reciprocal(
        np.array([[1.0, 1.0, 2.0], [1.0, 1.0, 1.0], [0.5, 1.0, 1.0]])
    )
    d = report_to_dict(analyze(A, w=np.array([1.0, 2.0, 3.0])))
    assert d["efficient"] is False
    assert d["perron_value"] is None  # vector was supplied, not computed
    assert d["edges"] == [[2, 1], [3, 1], [3, 2]]
    assert d["sources"] == [3] and d["sinks"] == [1]
    assert d["hamiltonian"] is None
    assert d["certificate"] == [1.0, 2.0, 2.0]
    out = tmp_path / "r.json"
    save_report(d, out)
    assert json.loads(out.read_text()) == d
    assert len(out.read_text().splitlines()) == 1  # compact, one line

    d = report_to_dict(analyze(A))
    assert d["perron_value"] is not None and d["efficient"] is True
    assert d["certificate"] is None and len(d["hamiltonian"]) == 3


def test_report_edges_are_the_sorted_edge_set():
    rng = np.random.default_rng(3)
    for n in (3, 8, 25):
        A = random_reciprocal(n, seed=300 + n)
        for w in (None, np.exp(rng.uniform(-1.0, 1.0, size=n))):
            rep = analyze(A, w=w)
            edges = report_to_dict(rep)["edges"]
            assert edges == [list(e) for e in sorted(rep.digraph.edges)]


# --- walkthrough and sweep ----------------------------------------------


@pytest.fixture(scope="module")
def walkthrough():
    return example_walkthrough()


def test_walkthrough_known_discrepancy_only(walkthrough):
    assert len(walkthrough) == 10
    failing = [s.check_id for s in walkthrough if not s.passed]
    # the bundled reference marks this vector inefficient; computation
    # disagrees, and the discrepancy is surfaced rather than hidden
    assert failing == ["example1.bprime_perron_inefficient"]


WALKTHROUGH_STEPS = [
    ("example1.base_perron_matches", True, "max component deviation 2.56e-04 (tol 5e-4)"),
    ("example1.conjugate_matches", True, "max entry deviation 1.00e-04 (tol 1e-3)"),
    ("example1.bprime_perron_inefficient", False,
     "reference verdict inefficient; computed efficient=True"),
    ("example1.ones_vector_efficient", True, "computed efficient=True"),
    ("example1.well_behaved", True, "first/last row-sum gap 5.79 (reference 5.79)"),
    ("example1.extension_unit_perron", True,
     "row-sum residual 1.03e-12, all-ones efficient=True"),
    ("example1.conjugated_restores_base", True, "leading block comparison is exact"),
    ("example1.conjugated_perron_matches", True,
     "max component deviation 1.49e-13 (tol 1e-9)"),
    ("example1.conjugated_efficient", True, "computed on the order-6 digraph"),
    ("example1.ranking_changes", True,
     "base ranks (1, 4, 5, 2, 3), extension-prefix ranks (3, 3, 3, 2, 1)"),
]


def test_walkthrough_solves_each_matrix_once(perron_calls):
    steps = example_walkthrough()
    assert [(s.check_id, s.passed, s.detail) for s in steps] == WALKTHROUGH_STEPS
    # the base B, the conjugate B' and the order-6 extension, once each
    assert sorted(perron_calls) == [5, 5, 6]


def test_sweep_point_trivial():
    (rec,) = grid_sweep(5, (1.0,))
    assert rec.efficient and rec.guaranteed and not rec.sink_present
    assert rec.exception is None and rec.sink_vertex is None and rec.agrees
    assert rec.r >= 5.0


def test_sweep_record_invariant_enforced():
    p = ZParams(5, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="agrees"):
        SweepRecord(params=p, r=5.0, efficient=True, guaranteed=True,
                    exception=None, sink_present=True, sink_vertex=3,
                    agrees=True)


def test_grid_sweep_shape_and_order(tmp_path):
    out = tmp_path / "sweep.csv"
    records = grid_sweep(5, (0.25, 4.0), out=out)
    assert len(records) == 16
    xs = [rec.params.x for rec in records]
    assert xs == [0.25] * 8 + [4.0] * 8  # lexicographic in axis order
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 17
    first = lines[1].split(",")
    assert first[0] == "5" and first[1] == "0.25"
    assert first[6] in ("true", "false")


def test_sweep_csv_row_formats():
    rec = harness._sweep_record(zfamily.evaluate_z(ZParams(5, 0.25, 2.0, 2.0, 0.5)))
    row = sweep_csv_row(rec).split(",")
    assert row[:5] == ["5", "0.25", "2", "2", "0.5"]
    assert row[6] == "false" and row[9] == "true"  # inefficient, sink present
    assert row[8] == "T5(iii)" and row[10] == "3" and row[11] == "true"
    assert float(row[5]) == rec.r


def test_grid_sweep_validation():
    with pytest.raises(ValueError, match="n >= 5"):
        grid_sweep(4, (1.0,))
    with pytest.raises(ValueError, match="positive"):
        grid_sweep(5, (1.0, -1.0))


# --- verification suite ---------------------------------------------------


@pytest.fixture(scope="module")
def counted_suite():
    """One suite run; the orders of the rows that pass through `perron_stack`
    and `analyze_stack` while grid points are evaluated, and the most
    evaluated grid points alive at once."""
    solves, builds, live, peak, inside = [], [], weakref.WeakSet(), [0], [False]

    def counted_solves(a, *args, **kwargs):
        if inside[0]:
            solves.extend([a.shape[-1]] * len(a))
        return perron_stack(a, *args, **kwargs)

    def counted_reports(As, *args, **kwargs):
        for rep in digraph.analyze_stack(As, *args, **kwargs):
            if inside[0]:
                builds.append(rep.digraph.n)
            yield rep

    def tracked(ps, eps_rel):
        points = zfamily.evaluate_z_stack(ps, eps_rel)
        while True:
            inside[0] = True
            try:
                pt = next(points)
            except StopIteration:
                return
            finally:
                inside[0] = False
            live.add(pt)
            peak[0] = max(peak[0], len(live))
            yield pt

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(digraph, "perron_stack", counted_solves)
        mp.setattr(zfamily, "analyze_stack", counted_reports)
        mp.setattr(harness, "evaluate_z_stack", tracked)
        summary = verify_paper_suite()
    return summary, solves, builds, peak[0]


@pytest.fixture(scope="module")
def suite(counted_suite):
    return counted_suite[0]


def test_suite_single_known_failure(suite):
    assert suite.checks == 29
    assert [cid for cid, _ in suite.failures] == [
        "example1.bprime_perron_inefficient"
    ]
    assert not suite.ok
    assert suite.wall_time > 0


def test_suite_solves_each_grid_point_once(counted_suite):
    _, solves, builds, _ = counted_suite
    assert Counter(solves) == {5: 625, 6: 625, 7: 625}
    assert Counter(builds) == {5: 625, 6: 625, 7: 625}


def test_suite_streams_grid_points(counted_suite):
    # the point being read and the one just evaluated, never the grid
    _, _, _, peak = counted_suite
    assert peak <= 2


def test_failing_details_name_the_instance_to_replay(monkeypatch):
    bad_point = ZParams(6, 0.5, 1.0, 2.0, 4.0)
    forbidden = zfamily.forbidden_reverse_edges
    monkeypatch.setattr(harness, "has_no_source", lambda G: G.n != 5)
    monkeypatch.setattr(harness, "forbidden_reverse_edges", lambda p, G: (
        ["injected"] if p == bad_point else forbidden(p, G)))
    monkeypatch.setattr(harness, "guarantee_n4",
                        lambda x, y, z, form: form == "six_cases" and x > 8)
    details = dict(verify_paper_suite().failures)
    assert list(details) == [
        "example1.bprime_perron_inefficient",
        "no_source.random_matrices",
        "edges.no_forbidden_reverse",
        "n4.forms_agree",
    ]
    # k = 2 is the first seed offset with 3 + k % 6 == 5
    assert details["no_source.random_matrices"] == (
        "167 of 1000 random matrices violated; first: random_reciprocal(5, seed=1002)")
    head, first = details["edges.no_forbidden_reverse"].split("; first: ")
    assert head == "1 violations"
    assert eval(first, {"ZParams": ZParams}) == bad_point
    head, first = details["n4.forms_agree"].split("; first: (x, y, z) = ")
    assert head.endswith("of 1000 triples disagree") and not head.startswith("0 ")
    assert ast.literal_eval(first)[0] > 8


def test_seeded_instances_come_in_seed_order():
    # stacks are evaluated order by order, but the pairs (and so a count
    # check's first failing instance) follow k, as one-at-a-time evaluation
    got = list(harness._seeded(40, 6, 1000, 1e-9, lambda rep: rep.A.a[0, 1] > 2.0))
    want = [(f"random_reciprocal({3 + k % 6}, seed={1000 + k})",
             bool(random_reciprocal(3 + k % 6, seed=1000 + k).a[0, 1] > 2.0))
            for k in range(40)]
    assert got == want and 0 < sum(bad for _, bad in got) < 40


# --- CLI -----------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_analyze_roundtrip(tmp_path, capsys):
    path = tmp_path / "ones.csv"
    save_matrix(make_reciprocal(np.ones((3, 3))), path)
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["efficient"] is True
    assert payload["perron_value"] == pytest.approx(3.0)


def test_cli_analyze_with_vector_and_out(tmp_path, capsys):
    mpath = tmp_path / "m.csv"
    mpath.write_text("1,1,2\n1,1,1\n0.5,1,1\n")
    vpath = tmp_path / "v.csv"
    vpath.write_text("1,2,3\n")
    opath = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", str(mpath), "--vector",
                           str(vpath), "--out", str(opath))
    assert code == 0 and out == ""
    payload = json.loads(opath.read_text())
    assert payload["sources"] == [3] and payload["efficient"] is False


def test_cli_analyze_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n0.6,1\n")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2
    assert "reciprocity violation" in err
    code, _, err = run_cli(capsys, "analyze", str(tmp_path / "missing.csv"))
    assert code == 2


@pytest.mark.parametrize("entry", ["inf", "nan", "0", "-1"])
def test_cli_analyze_rejects_bad_vector(tmp_path, capsys, entry):
    mat = tmp_path / "M.csv"
    save_matrix(random_reciprocal(3, seed=4), mat)
    vec = tmp_path / "w.csv"
    vec.write_text(f"1,{entry},2\n")
    code, out, err = run_cli(capsys, "analyze", str(mat), "--vector", str(vec))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "positive" in err


def test_cli_analyze_rejects_eps_rel_of_one(tmp_path, capsys):
    mat = tmp_path / "M.csv"
    save_matrix(random_reciprocal(3, seed=4), mat)
    code, _, err = run_cli(capsys, "analyze", str(mat), "--eps-rel", "1")
    assert code == 2 and err.startswith("error:") and "nonnegative" in err


def test_cli_z_region_payload(capsys, perron_calls):
    code, out, _ = run_cli(capsys, "z", "--n", "5", "--x", "0.2", "--y", "2",
                           "--z", "0.5", "--a", "1.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["region"]["guaranteed_efficient"] is False
    assert payload["region"]["matched_exception"] == "T5(i)"
    assert payload["sink_check"]["agrees"] is True
    assert payload["report"]["efficient"] is True
    # the report and the sink check read one evaluation
    assert payload["sink_check"]["efficient"] is True
    assert perron_calls == [5]


def test_cli_z_n4(capsys):
    code, out, _ = run_cli(capsys, "z", "--n", "4", "--x", "1", "--y", "1",
                           "--z", "1", "--a", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["region"]["guaranteed_efficient"] is True


def test_cli_z_reports_a_solve_that_does_not_converge(capsys):
    # 1e308 and 1e-308 overflow the squared start, and the loop from
    # all-ones stalls under the absolute stop test
    code, out, err = run_cli(capsys, "z", "--n", "5", "--x", "1e308", "--y", "1e-308",
                             "--z", "1", "--a", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: power iteration did not converge in 100000 iterations")
    assert "Traceback" not in err


def test_cli_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, stdout, _ = run_cli(capsys, "sweep", "--n", "5", "--axes", "1",
                              "--out", str(out))
    assert code == 0 and stdout == ""
    lines = out.read_text().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER and len(lines) == 2


def test_cli_sweep_stdout(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "5", "--axes", "0.5,2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER and len(lines) == 17


# sha256 of `recipeff sweep --n N | cut -d, -f1-5,7-`: the default-axes grid
# with the r column dropped, so the digest does not read the eigenvalue's
# last bits
GOLDEN_SWEEP_SHA256 = {
    5: "eee6c30cd2974fa1c071537bdceeeba840e17970a0cebe84534edcb5d46fd245",
    6: "e209cb6b1c16540e0321aa4c7fa83c4c1177ea3e7e717ac9195dedb7572412fc",
    7: "aeb2a4ffe750ea09c9914139008fe1ad9852d65b4bf3ba9c0ec2fe1513ef0417",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_SWEEP_SHA256))
def test_cli_sweep_matches_golden_digest(capsys, n):
    code, out, _ = run_cli(capsys, "sweep", "--n", str(n))
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()]
    assert len(rows) == 626 and all(len(row) == 12 for row in rows)
    cut = "".join(",".join(row[:5] + row[6:]) + "\n" for row in rows)
    assert hashlib.sha256(cut.encode()).hexdigest() == GOLDEN_SWEEP_SHA256[n]


def test_cli_extend_constant_row_sum(tmp_path, capsys):
    path = tmp_path / "m.csv"
    save_matrix(random_reciprocal(4, seed=12), path)
    code, out, _ = run_cli(capsys, "extend", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["base_order"] == 4
    assert payload["target_sum"] is not None
    assert payload["efficient"] is True
    assert len(payload["appended_column"]) == 4


def test_cli_extend_conjugate(tmp_path, capsys):
    path = tmp_path / "m.csv"
    save_matrix(random_reciprocal(3, seed=13), path)
    code, out, _ = run_cli(capsys, "extend", str(path),
                           "--conjugate-diag", "2,1,0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["target_sum"] is None
    w = payload["perron_vector"]
    closed = np.array([0.5, 1.0, 2.0, 1.0]) / 0.5
    assert np.max(np.abs(np.array(w) - closed)) <= 1e-9
    code, _, err = run_cli(capsys, "extend", str(path), "--method",
                           "conjugate-diag")
    assert code == 2 and "requires --conjugate-diag" in err
    code, out, err = run_cli(capsys, "extend", str(path), "--method",
                             "constant-row-sum", "--conjugate-diag", "2,1,0.5")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "does not take --conjugate-diag" in err
    code, out, _ = run_cli(capsys, "extend", str(path), "--method",
                           "conjugate-diag", "--conjugate-diag", "2,1,0.5")
    assert code == 0 and json.loads(out)["perron_vector"] == w


def test_cli_example_walkthrough_reports_discrepancy(capsys):
    code, out, _ = run_cli(capsys, "example-ee1")
    assert code == 1
    assert "[FAIL] example1.bprime_perron_inefficient" in out
    assert out.count("[PASS]") == 9
    assert "9/10 steps passed" in out


def test_cli_verify_exit_codes(monkeypatch, capsys):
    from recipeff.harness import VerificationSummary

    def fake_suite(eps):
        return VerificationSummary("verify", 3, (), 0.1)

    monkeypatch.setattr(cli, "verify_paper_suite", fake_suite)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0 and "PASS: 3/3" in out

    def fake_suite_fail(eps):
        return VerificationSummary("verify", 3, (("x.y", "boom"),), 0.1)

    monkeypatch.setattr(cli, "verify_paper_suite", fake_suite_fail)
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1 and "FAIL x.y: boom" in out


def test_cli_eps_resolution(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ones.csv"
    save_matrix(make_reciprocal(np.ones((3, 3))), path)
    monkeypatch.setenv("RECIP_EPS", "1e-6")
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert json.loads(out)["eps_rel"] == 1e-6
    # explicit flag beats the environment
    code, out, _ = run_cli(capsys, "analyze", str(path), "--eps-rel", "1e-3")
    assert json.loads(out)["eps_rel"] == 1e-3
    monkeypatch.setenv("RECIP_EPS", "banana")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 2 and "RECIP_EPS" in err
