import ast
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import FLOAT_FMT, save_matrix, save_vector
from recipeff import cli, digraph, extensions, harness, matio, zfamily
from recipeff.core import (
    ReciprocalMatrix,
    make_reciprocal,
    perron,
    perron_stack,
    random_reciprocal,
    random_reciprocal_stack,
)
from recipeff.digraph import DEFAULT_EPS_REL, analyze
from recipeff.harness import (
    SWEEP_CSV_HEADER,
    VerificationSummary,
    example_walkthrough,
    grid_sweep,
    sweep_csv,
    verify_paper_suite,
)
from recipeff.matio import (
    _parse_rows,
    load_matrix,
    load_vector,
    report_json,
    report_to_dict,
    save_report,
)
from recipeff.zfamily import (
    ZParams,
    ZStack,
    guarantee_a1,
    guarantee_n4,
    guarantee_n5plus,
    z_matrix,
)


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
    # rows are named by file line, blank lines included, in both errors
    path.write_text("1,2\n\n0.5\n")
    with pytest.raises(ValueError, match="row 3 has 1 values, expected 2"):
        load_matrix(path)
    path.write_text("1,2\n\n0.5,x\n")
    with pytest.raises(ValueError, match="row 3, column 2"):
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
    assert d["edges"].tolist() == [[2, 1], [3, 1], [3, 2]]
    assert d["sources"] == [3] and d["sinks"] == [1]
    assert d["hamiltonian"] is None
    assert d["certificate"] == [1.0, 2.0, 2.0]
    out = tmp_path / "r.json"
    save_report(d, out)
    assert json.loads(out.read_text()) == {**d, "edges": d["edges"].tolist()}
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
            edges = report_to_dict(rep)["edges"].tolist()
            assert edges == [list(e) for e in sorted(rep.digraph.edges)]


def parse_rows_reference(text, what):
    """`_parse_rows` as a per-token `float` loop: the syntax and errors to keep."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for colno, tok in enumerate(line.split(","), start=1):
            try:
                row.append(float(tok))
            except ValueError:
                raise ValueError(
                    f"{what}: row {lineno}, column {colno}: cannot parse {tok.strip()!r}"
                ) from None
        rows.append(row)
    if not rows:
        raise ValueError(f"{what}: empty input")
    return rows


padding = st.text(alphabet=" \t\u00a0\u3000", max_size=2)
csv_token = st.one_of(
    st.floats().map(repr),
    st.tuples(padding, st.floats().map(repr), padding).map("".join),
    st.sampled_from(["1_0", "inf", "-inf", "nan", "-nan", "Infinity", "", " ", "0x10",
                     "1e", "--1", "1__0", ".", "\u0661\u0662", "1\x00"]),
    st.text(max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(csv_token, min_size=1, max_size=6), min_size=1, max_size=5))
def test_parse_rows_matches_float_per_token(lines):
    text = "\n".join(",".join(toks) for toks in lines)
    try:
        want = parse_rows_reference(text, "m.csv")
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _parse_rows(text, "m.csv")
        assert str(got.value) == str(exc)
        return
    got = _parse_rows(text, "m.csv")
    assert [row.tobytes() for _, row in got] == [np.array(row).tobytes() for row in want]


def test_parse_rows_names_the_first_bad_token_of_a_wide_file():
    rows = [["1.5"] * 300 for _ in range(6)]
    rows[3][250] = "x"  # row 4, column 251: the first in row-major order
    rows[3][251] = "y"
    rows[4][0] = "z"
    text = "\n".join(",".join(row) for row in rows)
    with pytest.raises(ValueError, match=r"^m\.csv: row 4, column 251: cannot parse 'x'$"):
        _parse_rows(text, "m.csv")
    rows[2][299] = " w "
    text = "\n".join(",".join(row) for row in rows)
    with pytest.raises(ValueError, match=r"^m\.csv: row 3, column 300: cannot parse 'w'$"):
        _parse_rows(text, "m.csv")


def read_reference(path, kind):
    """What `load_matrix` hands `make_reciprocal` ("matrix") or what `load_vector`
    returns ("vector"), by the loaders' rules over `parse_rows_reference`."""
    text = Path(path).read_text(encoding="utf-8-sig")
    rows = parse_rows_reference(text, str(path))
    if kind == "matrix":
        linenos = [i for i, line in enumerate(text.splitlines(), start=1) if line.strip()]
        for lineno, row in zip(linenos, rows):
            if len(row) != len(rows):
                raise ValueError(
                    f"{path}: row {lineno} has {len(row)} values, expected {len(rows)}")
        return np.array(rows, dtype=float)
    if len(rows) != 1 and any(len(row) != 1 for row in rows):
        raise ValueError(f"{path}: expected a single CSV row or column")
    v = np.array(rows, dtype=float).ravel()
    if not np.all(np.isfinite(v) & (v > 0)):
        raise ValueError(f"{path}: vector entries must be positive and finite")
    return v


def read_file(path, kind):
    """`load_matrix`'s array before `make_reciprocal`, or `load_vector`'s vector."""
    if kind == "vector":
        return load_vector(path)
    with mock.patch.object(matio, "make_reciprocal", lambda a, mode: np.array(a, dtype=float)):
        return load_matrix(path)


number = st.one_of(st.floats().map(repr),
                   st.tuples(padding, st.floats().map(repr), padding).map("".join))
# cells with a line break to `str.splitlines` but not to a file, or that `float` alone reads
odd_cell = st.one_of(csv_token, st.sampled_from(
    ["2\f", "\f2", "2\u2028", "\u20282", "2\x85", "\x1c2", "2\v", "1_0", "2_0", "\uff12"]))


@st.composite
def csv_lines(draw):
    """A grid of numbers (square, one row, one column, or one column wider than
    tall) with up to two cells replaced by `odd_cell`s, maybe a trailing comma,
    and up to two blank or space-only lines put in."""
    k = draw(st.integers(1, 4))
    rows, cols = draw(st.sampled_from([(k, k), (1, k), (k, 1), (k, k + 1)]))
    grid = draw(st.lists(st.lists(number, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 2))):
        grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(odd_cell)
    lines = [",".join(row) for row in grid]
    if draw(st.booleans()):
        lines[-1] += ","
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t\u3000", "\f", "\u2028"])))
    return lines


@settings(max_examples=400, deadline=None)
@given(st.one_of(csv_lines(), st.lists(st.lists(csv_token, max_size=4).map(",".join), max_size=4)),
       st.sampled_from(["\n", "\r\n", "\r"]), st.booleans(), st.booleans(),
       st.sampled_from(["matrix", "vector"]))
@example(["1\f,2"], "\n", False, True, "vector")  # loadtxt alone reads [1, 2]
@example(["2,1\u2028", "1,1"], "\r\n", True, True, "matrix")
@example([], "\n", True, False, "matrix")
@example(["1,\ud800"], "\n", False, True, "vector")  # not UTF-8
def test_file_reader_matches_the_reference(tmp_path_factory, lines, eol, bom, last_eol, kind):
    path = tmp_path_factory.getbasetemp() / "reader.csv"
    text = eol.join(lines) + (eol if last_eol and lines else "")
    path.write_bytes(("\ufeff" if bom else "").encode() + text.encode("utf-8", "surrogatepass"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            want = read_reference(path, kind)
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                read_file(path, kind)
            assert str(got.value) == str(exc)
            return
        got = read_file(path, kind)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_the_fast_reader_needs_no_fallback_on_saved_files(tmp_path, monkeypatch):
    def refuse(text, what):
        raise AssertionError(f"{what} fell back to _parse_rows")

    A = random_reciprocal(400, seed=8)
    w = perron(A).w
    mat, row, col = tmp_path / "m.csv", tmp_path / "row.csv", tmp_path / "col.csv"
    save_matrix(A, mat)
    save_vector(w, row)
    col.write_text("".join(FLOAT_FMT % x + "\n" for x in w), encoding="utf-8")
    excel = tmp_path / "excel.csv"  # a byte-order mark and CRLF line ends
    excel.write_bytes(b"\xef\xbb\xbf" + mat.read_bytes().replace(b"\n", b"\r\n"))
    monkeypatch.setattr(matio, "_parse_rows", refuse)
    assert load_matrix(mat).a.tobytes() == A.a.tobytes()
    assert load_matrix(excel).a.tobytes() == A.a.tobytes()
    assert load_vector(row).tobytes() == w.tobytes()
    assert load_vector(col).tobytes() == w.tobytes()


def test_csv_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes("\ufeff1,2\r\n0.5,1\r\n".encode("utf-8"))
    assert load_matrix(path).a.tolist() == [[1.0, 2.0], [0.5, 1.0]]
    path.write_bytes("\ufeff1,2.5,3\r\n".encode("utf-8"))
    assert load_vector(path).tolist() == [1.0, 2.5, 3.0]


@pytest.mark.parametrize("entry", ["inf", "nan", "0", "-1"])
def test_load_vector_rejects_entries_that_are_not_positive_and_finite(tmp_path, entry):
    path = tmp_path / "w.csv"
    path.write_text(f"1,{entry},2\n")
    with pytest.raises(ValueError) as exc:
        load_vector(path)
    assert str(exc.value) == f"{path}: vector entries must be positive and finite"


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=20_000), st.integers(min_value=0, max_value=2**32))
def test_report_json_writes_int_arrays_as_json_dumps_does(m, k, top, seed):
    a = np.random.default_rng(seed).integers(0, top + 1, size=(m, k))
    # `z`'s payload holds its edges two levels deep, under "report"
    payload = {"edges": a, "w": [0.5, 1e-300], "name": "T5(i)", "none": None,
               "report": {"sinks": [3], "edges": a[::-1]}}
    listed = {**payload, "edges": a.tolist(),
              "report": {"sinks": [3], "edges": a[::-1].tolist()}}
    for indent in (None, 0, 1, 2, 3, 4):
        assert report_json(payload, indent) == json.dumps(listed, indent=indent)


def test_report_json_with_a_string_that_looks_like_its_marker():
    payload = {"note": "\0", "edges": np.array([[1, 2], [2, 1]])}
    assert report_json(payload) == json.dumps({**payload, "edges": [[1, 2], [2, 1]]})


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
     "reference verdict inefficient; computed efficient=True (min log margin 0.104); the base "
     "Perron vector read unconjugated gives 5 blocks, sources (4,), sinks (3,)"),
    ("example1.ones_vector_efficient", True, "computed efficient=True"),
    ("example1.well_behaved", True, "first/last row-sum gap 5.79 (reference 5.79)"),
    ("example1.extension_unit_perron", True,
     "row-sum residual 1.78e-15, all-ones efficient=True"),
    ("example1.conjugated_restores_base", True, "leading block comparison is exact"),
    ("example1.conjugated_perron_matches", True,
     "max component deviation 4.44e-16 (tol 1e-9)"),
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
    s = grid_sweep(5, (1.0,))
    assert len(s) == 1 and s.efficient[0] and s.guaranteed[0] and not s.sink_present[0]
    assert s.exception[0] is None and s.sink_vertex[0] is None and s.agrees[0]
    assert s.r[0] >= 5.0


def test_grid_sweep_shape_and_order(tmp_path, capsys):
    points = grid_sweep(5, (0.25, 4.0))
    assert len(points) == 16
    assert points.xyza[:, 0].tolist() == [0.25] * 8 + [4.0] * 8  # lexicographic in axis order
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(capsys, "sweep", "--n", "5", "--axes", "0.25,4",
                              "--out", str(out))
    assert code == 0 and stdout == ""
    lines = out.read_text().splitlines()
    assert lines == sweep_csv(points)
    first = lines[1].split(",")
    assert first[0] == "5" and first[1] == "0.25"
    assert first[6] in ("true", "false")


def test_sweep_csv_row_formats():
    points = ZStack(5, [(0.25, 2.0, 2.0, 0.5)])
    header, line = sweep_csv(points)
    row = line.split(",")
    assert header == SWEEP_CSV_HEADER
    assert row[:5] == ["5", "0.25", "2", "2", "0.5"]
    assert row[6] == "false" and row[9] == "true"  # inefficient, sink present
    assert row[8] == "T5(iii)" and row[10] == "3" and row[11] == "true"
    assert float(row[5]) == points.r[0]


# (x, y, z, a) and the sweep's efficient, guaranteed, exception, sink_vertex cells
SWEEP_Z_POINTS = {
    (0.5, 4.0, 0.25, 2.0): ("true", "true", "", ""),
    (0.25, 2.0, 2.0, 0.5): ("false", "false", "T5(iii)", "3"),
    (2.0, 0.5, 0.25, 2.0): ("false", "false", "T7(iii)", "3"),
    (0.25, 4.0, 0.5, 2.0): ("true", "false", "T5(i)", ""),
}


@pytest.mark.parametrize("n", [5, 7])
def test_sweep_row_and_z_payload_read_one_point(capsys, n):
    code, out, _ = run_cli(capsys, "sweep", "--n", str(n), "--axes", "0.25,0.5,2,4")
    assert code == 0
    header, *lines = out.splitlines()
    rows = {}
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        rows[tuple(float(row[k]) for k in "xyza")] = row
    for (x, y, z, a), kinds in SWEEP_Z_POINTS.items():
        row = rows[x, y, z, a]
        assert (row["efficient"], row["guaranteed"], row["exception"],
                row["sink_vertex"]) == kinds
        code, out, _ = run_cli(capsys, "z", "--n", str(n), "--x", str(x), "--y", str(y),
                               "--z", str(z), "--a", str(a))
        assert code == 0
        payload = json.loads(out)
        region, sink = payload["region"], payload["sink_check"]
        z_cells = {
            "r": payload["report"]["perron_value"],
            "efficient": payload["report"]["efficient"],
            "guaranteed": region["guaranteed_efficient"],
            "exception": region["matched_exception"],
            **sink,
        }
        assert sink["efficient"] == payload["report"]["efficient"]
        # the CSV writes bool columns as true/false, and every other cell with `_csv_cell`
        assert {k: row[k] for k in z_cells} == {
            k: json.dumps(v) if isinstance(v, bool) else harness._csv_cell(v)
            for k, v in z_cells.items()}


def test_grid_sweep_validation():
    with pytest.raises(ValueError, match="n >= 5"):
        grid_sweep(4, (1.0,))
    with pytest.raises(ValueError, match="positive"):
        grid_sweep(5, (1.0, -1.0))


# --- verification suite ---------------------------------------------------


@pytest.fixture(scope="module")
def counted_suite():
    """One suite run; the orders of the rows that pass through `perron_stack`
    and `_adjacency` in the grid pass, where `ZStack` and `DigraphStack` call
    them; and outside the grid pass, the (order, rows) of each
    `digraph.perron_stack` and `_adjacency` call."""
    solves, builds, inside, calls = [], [], [False], {"solves": [], "builds": []}

    def counted_solves(a, *args, **kwargs):
        if inside[0]:
            solves.extend([a.shape[-1]] * len(a))
        return perron_stack(a, *args, **kwargs)

    def digraph_solves(a, *args, **kwargs):
        if not inside[0]:
            calls["solves"].append((a.shape[-1], len(a)))
        return counted_solves(a, *args, **kwargs)

    def counted_builds(a, w, eps_rel):
        if inside[0]:
            builds.extend([a.shape[-1]] * len(a))
        else:
            calls["builds"].append((a.shape[-1], len(a)))
        return adjacency(a, w, eps_rel)

    def grid_pass(eps_rel):
        inside[0] = True
        try:
            return grid_checks(eps_rel)
        finally:
            inside[0] = False

    adjacency, grid_checks = digraph._adjacency, harness._grid_checks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(digraph, "perron_stack", digraph_solves)
        mp.setattr(zfamily, "perron_stack", counted_solves)
        mp.setattr(digraph, "_adjacency", counted_builds)
        mp.setattr(harness, "_grid_checks", grid_pass)
        summary = verify_paper_suite()
    return summary, solves, builds, calls


@pytest.fixture(scope="module")
def suite(counted_suite):
    return counted_suite[0]


def test_suite_single_known_failure(suite):
    assert suite.checks == 29
    assert [cid for cid, _ in suite.failures] == [
        "example1.bprime_perron_inefficient"
    ]
    assert suite.failures
    assert suite.wall_time > 0


def test_suite_solves_each_grid_point_once(counted_suite):
    # each point of the n = 5, 6, 7 grids is one 5 x 5 quotient solve and one
    # 5-vertex digraph; the 64 inefficient n = 5 and 6 points' certificates are
    # read on those quotients, with no lift to order n
    _, solves, builds, _ = counted_suite
    assert Counter(solves) == {5: 3 * 625}
    assert Counter(builds) == {5: 3 * 625}


def test_suite_solves_each_random_order_once(counted_suite):
    # outside the grid pass, the random matrices, extensions and Hamiltonian
    # digraphs are one plan: one Perron solve and one digraph build per order
    # over the three checks' rows (1000 + 1000 + 200 of them).  The
    # walkthrough adds one-row solves of B' and the order-6 extension, and
    # one-row builds on them, on the counterexample and on three given vectors
    *_, calls = counted_suite
    plan = [(3, 207), (4, 407), (5, 407), (6, 357), (7, 356), (8, 316), (9, 150)]
    assert sum(rows for _, rows in plan) == 2200
    assert sorted(calls["solves"]) == sorted([*plan, (5, 1), (6, 1)])
    assert sorted(calls["builds"]) == sorted(
        [*plan, (3, 1), (5, 1), (5, 1), (5, 1), (6, 1), (6, 1)])


def test_failing_details_name_the_instance_to_replay(monkeypatch):
    # one bad point in the n = 6 grid, with two violations, and one in the
    # n = 5 grid, which is tallied first
    bad_points = (ZParams(5, 4.0, 0.25, 1.0, 2.0), ZParams(6, 0.5, 1.0, 2.0, 4.0))
    forbidden = dict(harness._GRID_AUDITS)["edges.no_forbidden_reverse"]

    def injected(s):
        out = forbidden(s)
        for violations, p in enumerate(bad_points, 1):
            if p.n == s.n:
                out[harness._GRID.tolist().index(list(p.xyza))] += violations
        return out

    monkeypatch.setattr(harness, "_GRID_AUDITS", tuple(
        (cid, injected if cid == "edges.no_forbidden_reverse" else audit)
        for cid, audit in harness._GRID_AUDITS))
    # the six-case form fails where x > 1, and the A1 clauses claim every
    # cell where z > 1 (cell rows whose rank of z exceeds that of 1)
    n4 = zfamily._n4_holds
    monkeypatch.setattr(harness, "_n4_holds", lambda xyz, form: n4(xyz, form) != (
        (xyz[:, 0] > 1) & (form == "six_cases")))
    cells, a1 = np.array(list(zfamily.order_cells())), zfamily._A1_EXCEPTIONS
    monkeypatch.setattr(harness, "_A1_EXCEPTIONS", SimpleNamespace(first=lambda rows: np.where(
        cells[rows, 3] > cells[rows, 0], "A1(forced)", a1.first(rows))))

    # each random-instance check's flags read its own rows of an order: three
    # extension samples fail, rows 57 and 140 of the order-5 bases' rows
    # (bases 2, 8, 14, 50 samples each) and row 50 of the order-6 bases'
    def extension_failures(flags):
        def flagged(adj):
            bad = flags(adj)
            for order, row in ((6, 57), (6, 140), (7, 50)):
                if adj.shape[-1] == order:
                    bad[row] = True
            return bad
        return flagged

    injected = {
        # every order-5 random matrix violates
        "no_source.random_matrices": lambda flags: lambda adj: np.full(
            len(adj), adj.shape[-1] == 5),
        "no_source.random_extensions": extension_failures,
        # no order-6 digraph has a cycle, so each strong one disagrees
        "hamiltonian.equivalence": lambda flags: lambda adj: (
            digraph._scc_counts(adj)[0] == 1 if adj.shape[-1] == 6 else flags(adj)),
    }
    monkeypatch.setattr(harness, "_RANDOM_CHECKS", tuple(
        (cid, template, injected[cid](flags), *rest)
        for cid, template, flags, *rest in harness._RANDOM_CHECKS))
    # no certificate dominates
    monkeypatch.setattr(digraph, "pareto_dominates_stack",
                        lambda a, w, w2: np.zeros(len(a), dtype=bool))
    details = dict(verify_paper_suite().failures)
    assert list(details) == [
        "example1.bprime_perron_inefficient",
        "no_source.random_matrices",
        "no_source.random_extensions",
        "edges.no_forbidden_reverse",
        "hamiltonian.equivalence",
        "n4.forms_agree",
        "a1.slice_equality",
        "certificates.sound",
    ]
    # k = 2 is the first instance of order 3 + k % 6 == 5: row 0 of its stack
    assert details["no_source.random_matrices"] == (
        "167 of 1000 random matrices violated; first: random_reciprocal_stack(5, 1, seed=1002)[0]")
    assert details["no_source.random_extensions"] == (
        "3 of 1000 random extensions violated; first: sample 7 of extension_source_scan("
        "random_reciprocal(5, seed=2008), 50, seed=3008)")
    head, first = details["edges.no_forbidden_reverse"].split("; first: ")
    assert head == "3 violations"
    assert eval(first, {"ZParams": ZParams}) == bad_points[0]
    # k = 3 is the first instance of order 3 + k % 5 == 6, and its digraph is strong
    assert details["hamiltonian.equivalence"] == (
        "37 of 200 random digraphs disagree; first: random_reciprocal_stack(6, 1, seed=4003)[0]")
    # each red line names a point that replays it: its cell is one of the
    # flagged ones, and the unpatched predicates agree there
    cells = harness._slice_points()
    head, first = details["n4.forms_agree"].split("; first: (x, y, z) = ")
    xyz = ast.literal_eval(first)
    assert head == f"{int((cells[:, 0] > 1).sum())} of 75 order cells disagree"
    assert xyz == (2.0, 1.0, 1.0)
    assert guarantee_n4(*xyz) == guarantee_n4(*xyz, "region_complement")
    # the A1 clauses exclude every z > 1 cell that the region keeps
    head, first = details["a1.slice_equality"].split("; first: ")
    p = eval(first, {"ZParams": ZParams})
    forced = (cells[:, 2] > 1) & zfamily.cell_tables(cells)["guaranteed"]
    assert head == f"{forced.sum()} of 75 order cells disagree" == "30 of 75 order cells disagree"
    assert p == ZParams(5, 1.0, 1.0, 2.0, 1.0)
    assert guarantee_a1(p.n, p.x, p.y, p.z) == guarantee_n5plus(p) and p.z > 1
    assert details["certificates.sound"] == (
        "65 of 65 certificates failed; first: the 3x3 counterexample")


def test_failed_certificates_are_counted_not_thrown(monkeypatch, capsys):
    # with no certificate dominating, the 3x3 counterexample and the 64
    # inefficient grid points are each one failed certificate, and the suite
    # still returns, so `recipeff verify` exits 1 rather than raising
    monkeypatch.setattr(digraph, "pareto_dominates_stack",
                        lambda a, w, w2: np.zeros(len(a), dtype=bool))
    summary = verify_paper_suite()
    assert summary.checks == 29 and summary.failures == (
        ("example1.bprime_perron_inefficient", WALKTHROUGH_STEPS[2][2]),
        ("certificates.sound", "65 of 65 certificates failed; first: the 3x3 counterexample"))
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1 and "FAIL certificates.sound: 65 of 65 certificates failed" in out


def test_a_failed_grid_certificate_names_its_point(monkeypatch):
    # the n = 5 grid's certificates and the counterexample's hold, the n = 6
    # grid's fail: the first failure is the first inefficient n = 6 point,
    # named only when the record is written
    grids = iter([True, False])
    monkeypatch.setattr(digraph, "pareto_dominates_stack", lambda a, w, w2: np.full(
        len(a), len(a) != len(harness._GRID) or next(grids)))
    monkeypatch.setattr(harness, "example_walkthrough", lambda eps_rel: [])
    s = ZStack(6, harness._GRID)
    bad = int((~s.efficient).sum())
    records = {r.check_id: (r.passed, r.detail) for r in harness._suite_records(1e-9)}
    assert records["certificates.sound"] == (False, (
        f"{bad} of 65 certificates failed; first: ZParams{(6, *s.xyza[~s.efficient][0].tolist())}"))
    p = eval(records["certificates.sound"][1].split("; first: ")[1], {"ZParams": ZParams})
    assert 0 < bad < 64 and not analyze(z_matrix(p)).efficient


def test_the_reference_verdict_is_the_base_vector_read_unconjugated(
        base_matrix, conjugate_reference, diag, reference_perron):
    # B' is D B D^-1 to 1e-3, so its Perron vector is D w_B rescaled to 1e-4,
    # and both are efficient.  The reference's inefficient verdict is what w_B
    # itself, or its bundled 4-decimal copy, gives when read against B'
    # without the conjugation; D^-1 w_B is inefficient too, with another source
    w_B = perron(base_matrix).w
    own = analyze(conjugate_reference)
    assert own.efficient and analyze(conjugate_reference, w=diag * w_B).efficient
    assert np.max(np.abs(own.w - diag * w_B / (diag[0] * w_B[0]))) < 1e-4
    for w in (w_B, reference_perron):
        rep = analyze(conjugate_reference, w=w)
        assert (rep.efficient, rep.scc_count, rep.sources, rep.sinks) == (False, 5, (4,), (3,))
    rep = analyze(conjugate_reference, w=w_B / diag)
    assert (rep.efficient, rep.sources, rep.sinks) == (False, (5,), (3,))


def test_an_efficient_counterexample_has_no_certificate_to_fail():
    # at eps_rel = 0.5 the edge (1, 2) of the 3x3 counterexample appears, so
    # its digraph is strong: it has no certificate, and neither has any grid
    # point, all of them efficient there
    records = {r.check_id: (r.passed, r.detail) for r in harness._suite_records(0.5)}
    assert records["counterexample3x3.structure"] == (
        False, "edges [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2)], sources ()")
    assert records["certificates.sound"] == (True, "0 of 0 certificates failed")
    assert "certificates.sound" not in dict(verify_paper_suite(0.5).failures)


def test_suite_reads_no_report_outside_the_walkthrough(monkeypatch):
    # the counterexample and the grids' certificates are read off their
    # stacks' columns: no row report is built, so none can raise
    def no_report(self, i):
        raise AssertionError(f"report({i}) of a stack of shape {self.a.shape}")

    monkeypatch.setattr(harness, "example_walkthrough", lambda eps_rel: [])
    monkeypatch.setattr(digraph.DigraphStack, "report", no_report)
    monkeypatch.setattr(zfamily.ZStack, "report", no_report)
    records = harness._suite_records(1e-9)
    assert len(records) == 19 and all(r.passed for r in records)


def test_suite_records_and_instances_are_pinned():
    # the 29 (check_id, passed, detail) records, which hold no wall time, and
    # the bytes of every seeded matrix the suite draws: a change to either
    # shows up here as a new digest
    records = [(r.check_id, r.passed, r.detail) for r in harness._suite_records(1e-9)]
    assert len(records) == 29
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest() == (
        "0ea7dc3d76ffea5867bb085645ab0bb504daa74a1a85733c534dd9f2a0af5dc1")
    # one matrix per seed, as the extension bases are drawn: the one-seed stream
    drawn = hashlib.sha256()
    for start, count, orders in ((1000, 1000, 6), (2000, 20, 6), (4000, 200, 5)):
        for k in range(count):
            drawn.update(random_reciprocal(3 + k % orders, seed=start + k).a.tobytes())
    assert drawn.hexdigest() == "0c19b9bbf988f7e37987eedbcd7631358c57fb7e05108ad5a6d8a74e48d7b593"
    # the stacks, one per order, of the no-source and Hamiltonian checks
    stacks = hashlib.sha256()
    for cid, _, _, _, draw, _ in harness._RANDOM_CHECKS:
        if cid != "no_source.random_extensions":
            for a, _ in draw():
                stacks.update(a.tobytes())
    assert stacks.hexdigest() == "cf207fed1120b76a5eff687a4ffce76be2a7b209801282cfa03616d15f3b60ca"


def _replay(name):
    """The matrix that a random-instance check's name of an instance gives, evaluated."""
    sample = re.fullmatch(r"sample (\d+) of extension_source_scan\((.+), 50, seed=(\d+)\)", name)
    if sample is None:
        return eval(name, {"random_reciprocal_stack": random_reciprocal_stack})
    k, base, seed = sample.groups()
    A = eval(base, {"random_reciprocal": random_reciprocal})
    span = np.log(extensions.APPENDED_SPAN)
    cols = np.exp(np.random.default_rng(int(seed)).uniform(-span, span, (50, A.n)))
    return extensions._append_column(A, cols[int(k)]).a


def test_seeded_instances_come_in_seed_order(monkeypatch):
    # stacks are evaluated order by order, but the flags (and so a count
    # check's first failing instance) follow k, and the namer of k gives,
    # evaluated, the matrix that the suite drew as instance k
    count, draw, name = harness._seeded(40, 6, 1000)
    tallied = []
    with monkeypatch.context() as mp:
        mp.setattr(harness, "_tally", lambda cid, template, bad, name: tallied.append(bad))
        mp.setattr(harness, "_RANDOM_CHECKS", (
            ("check", "", lambda adj: adj[:, 0, 1], count, draw, name),))
        harness._random_records(1e-9)
    want = [bool(analyze(ReciprocalMatrix(_replay(name(k)))).digraph.adj[0, 1])
            for k in range(count)]
    assert tallied[0].tolist() == want and 0 < sum(want) < count
    drawn = {}

    def recording(cid, draw):
        return lambda: drawn.setdefault(cid, list(draw()))

    monkeypatch.setattr(harness, "_RANDOM_CHECKS", tuple(
        (cid, template, flags, count, recording(cid, draw), name)
        for cid, template, flags, count, draw, name in harness._RANDOM_CHECKS))
    harness._suite_records(1e-9)
    assert list(drawn) == ["no_source.random_matrices", "no_source.random_extensions",
                           "hamiltonian.equivalence"]
    for cid, _, _, count, _, name in harness._RANDOM_CHECKS:
        assert sorted(np.concatenate([at for _, at in drawn[cid]]).tolist()) == list(range(count))
        for stack, at in drawn[cid]:
            for row, k in zip(stack, at.tolist()):
                assert _replay(name(k)).tobytes() == row.tobytes(), (cid, k)


def test_grid_checks_every_inefficient_point_certificate(monkeypatch):
    monkeypatch.setattr(digraph, "pareto_dominates_stack",
                        lambda a, w, w2: np.zeros(len(a), dtype=bool))
    _, fails, names = harness._grid_checks(1e-9)
    assert len(fails) == len(names) == 64 and fails.all()


def test_grid_checks_count_the_points_whose_sink_disagrees(monkeypatch):
    # with a loop at every vertex there is no sink anywhere, while the SCCs
    # stay as they are (a loop adds one to each out- and in-degree); so each
    # grid's 32 inefficient points disagree
    adjacency = digraph._adjacency
    monkeypatch.setattr(digraph, "_adjacency", lambda a, w, eps_rel: adjacency(
        a, w, eps_rel) | np.eye(a.shape[-1], dtype=bool))
    records, _, _ = harness._grid_checks(1e-9)
    details = {r.check_id: r.detail for r in records if not r.passed}
    for n in (5, 6):
        head, first = details[f"sink_characterization.grid_n{n}"].split("; first: ")
        assert head == "32 of 625 grid points disagree"
        p = eval(first, {"ZParams": ZParams})
        assert not ZStack(p.n, [p.xyza]).efficient[0]


def test_one_cell_table_is_built_on_first_use_and_read_at_every_order():
    # importing builds nothing, not even the cells' code table; the suite's
    # three grid orders read one table
    code = ("from recipeff import zfamily as z; print(*(f.cache_info().currsize for f in "
            "(z._cell_tables, z.order_cells, z._cell_codes)))")
    src = str(Path(zfamily.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "0", "0"]
    zfamily._cell_tables.cache_clear()
    verify_paper_suite()
    assert zfamily._cell_codes.cache_info().currsize == 1
    tables = zfamily._cell_tables()
    assert [t.shape for t in tables] == [(541, 4, 5, 5), (541,)]
    verify_paper_suite()
    assert zfamily._cell_tables() is tables
    assert zfamily._cell_tables.cache_info().misses == 1


def test_corner_sinks_agree_and_pass_the_grid_audits():
    # the verify grid reaches no quotient sink at a corner vertex; these axes
    # reach each of 1, 2, n-1 and n as the lone sink of six points at n = 6
    s = zfamily.ZStack(6, list(itertools.product((0.05, 0.2, 1.0, 5.0, 20.0), repeat=4)))
    counts = Counter(s.sink_vertex.tolist())
    assert {v: counts[v] for v in (1, 2, 5, 6)} == {1: 6, 2: 6, 5: 6, 6: 6}
    assert s.agrees.all()
    assert {cid: int(audit(s).sum()) for cid, audit in harness._GRID_AUDITS} == {
        cid: 0 for cid, _ in harness._GRID_AUDITS}


def test_grid_check_records_in_report_order():
    # the passing details carry the counts: 625 points per grid, and the 64
    # inefficient n = 5 and 6 points whose certificates are checked
    records, fails, names = harness._grid_checks(1e-9)
    one_sided = ("exception labels cover 32 inefficient and 24 efficient points "
                 "(guarantee is one-way)")
    labels = [f"T{k}{c}" for k in (5, 6, 7, 8) for c in ("(i)", "(ii)", "(iii)")]
    assert [(r.check_id, r.passed, r.detail) for r in records] == [
        ("sink_characterization.grid_n5", True, "0 of 625 grid points disagree"),
        ("region.soundness_n5", True, "0 guaranteed-but-inefficient points"),
        ("region.exceptions_one_sided_n5", True, one_sided),
        ("sink_characterization.grid_n6", True, "0 of 625 grid points disagree"),
        ("region.soundness_n6", True, "0 guaranteed-but-inefficient points"),
        ("region.exceptions_one_sided_n6", True, one_sided),
        ("region.exception_labels_nonvacuous", True, f"labels hit: {labels}"),
        *((cid, True, "0 violations") for cid, _ in harness._GRID_AUDITS),
    ]
    assert len(fails) == len(names) == 64 and not fails.any()


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
    missing = tmp_path / "missing.csv"
    code, _, err = run_cli(capsys, "analyze", str(missing))
    assert code == 2
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


@pytest.mark.parametrize("flags", ([], ["--symmetrize"]))
def test_cli_analyze_rejects_an_infinite_entry(tmp_path, capsys, flags):
    path = tmp_path / "inf.csv"
    path.write_text("1,inf\n0,1\n")
    assert run_cli(capsys, "analyze", str(path), *flags) == (
        2, "", "error: matrix entries must be finite\n")


@pytest.mark.parametrize("entry", ["inf", "nan", "0", "-1"])
def test_cli_analyze_rejects_bad_vector(tmp_path, capsys, entry):
    mat = tmp_path / "M.csv"
    save_matrix(random_reciprocal(3, seed=4), mat)
    vec = tmp_path / "w.csv"
    vec.write_text(f"1,{entry},2\n")
    code, out, err = run_cli(capsys, "analyze", str(mat), "--vector", str(vec))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "positive" in err


def test_cli_analyze_reports_a_certificate_that_fails_its_check(tmp_path, capsys):
    # a consistent matrix at eps_rel = 0: its Perron vector misses a tie by an
    # ulp, so the digraph is not strong, and scaling the source by beta =
    # 1 - 2**-53 changes no deviation by more than the dominance margin
    v = np.exp(np.random.default_rng(2).uniform(-2, 2, 5))
    A = make_reciprocal(v[:, None] / v[None, :], mode="symmetrize")
    mat = tmp_path / "M.csv"
    mat.write_text("".join(",".join(map(repr, row)) + "\n" for row in A.a.tolist()))
    code, out, err = run_cli(capsys, "analyze", str(mat), "--eps-rel", "0")
    assert (code, out, err) == (2, "", "error: certificate failed the dominance definition\n")


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


@pytest.mark.parametrize("n", [4, 6])
def test_cli_z_solves_one_perron_row(capsys, perron_calls, n):
    # the report, the sink check and the region read one solve of Z_n, made
    # on its 5 x 5 quotient from n = 5 on
    code, _, _ = run_cli(capsys, "z", "--n", str(n), "--x", "0.25", "--y", "2",
                         "--z", "2", "--a", "0.5")
    assert code == 0 and perron_calls == [min(n, 5)]


def test_cli_z_reports_a_lift_that_does_not_fit_in_memory(monkeypatch, capsys):
    # the quotient is 5 x 5 at every order, but the report lifts the point to
    # Z_n, which may not fit; the order here is small, and only the patch fails
    z_stack = zfamily.z_stack

    def lift_fails(n, xyza):
        if n > 5:
            raise MemoryError(f"Unable to allocate an order-{n} stack")
        return z_stack(n, xyza)

    monkeypatch.setattr(zfamily, "z_stack", lift_fails)
    code, out, err = run_cli(capsys, "z", "--n", "7", "--x", "0.25", "--y", "2",
                             "--z", "2", "--a", "0.5")
    assert (code, out, err) == (2, "", "error: Unable to allocate an order-7 stack\n")
    code, out, _ = run_cli(capsys, "sweep", "--n", "7", "--axes", "0.5,2")
    assert code == 0 and len(out.splitlines()) == 17


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


def test_cli_analyze_reports_a_solve_that_underflows(tmp_path, capsys):
    mat = tmp_path / "M.csv"
    save_matrix(make_reciprocal([[1, 1e200, 1e200], [1e-200, 1, 1e150],
                                 [1e-200, 1e-150, 1]]), mat)
    code, out, err = run_cli(capsys, "analyze", str(mat))
    assert code == 2 and out == ""
    assert err.startswith("error: power iteration stopped at a w or r that is not "
                          "positive and finite at row 0")


@pytest.mark.parametrize("argv", [
    ("z", "--n", "5", "--x", "1e308", "--y", "1e308", "--z", "1", "--a", "1"),
    ("analyze", "{csv}"),
], ids=["z", "analyze"])
def test_cli_reports_an_iterate_that_overflows(tmp_path, capsys, argv):
    # row sums of 2e308 overflow, and the solve stops on its first NaN
    # iterate in place of stalling at the iteration cap
    path = tmp_path / "m.csv"
    path.write_text("1,1e308,1e308\n1e-308,1,1\n1e-308,1,1\n")
    code, out, err = run_cli(capsys, *(arg.format(csv=path) for arg in argv))
    assert (code, out, err) == (2, "", "error: power iteration stopped at a w or r that "
                                       "is not positive and finite at row 0\n")


@pytest.mark.parametrize("argv, line", [
    (("z", "--n", "5", "--x", "1e-320", "--y", "1", "--z", "1", "--a", "1"),
     "x must be positive and finite, and so must 1/x"),
    (("z", "--n", "4", "--x", "1", "--y", "1", "--z", "1e-320", "--a", "1"),
     "z must be positive and finite, and so must 1/z"),
    (("sweep", "--n", "5", "--axes", "1,1e-320"),
     "axis values must be positive and finite, and so must their reciprocals; got 1e-320"),
    (("analyze", "--symmetrize", "{csv}"),
     "entry at row 1, column 2 must have a finite reciprocal, got 1e-320"),
    (("extend", "--symmetrize", "{csv}"),
     "entry at row 1, column 2 must have a finite reciprocal, got 1e-320"),
], ids=["z", "z-n4", "sweep", "analyze", "extend"])
def test_cli_rejects_a_value_whose_reciprocal_overflows(tmp_path, capsys, argv, line):
    path = tmp_path / "m.csv"
    path.write_text("1,1e-320\n1,1\n")
    code, out, err = run_cli(capsys, *(arg.format(csv=path) for arg in argv))
    assert (code, out, err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("vector", ["1e-320,1,1", "1e308,1,1e-308"])
def test_cli_rejects_a_vector_whose_ratio_overflows(tmp_path, capsys, vector):
    # a numpy RuntimeWarning fails the test: pyproject.toml makes it an error
    mat, vec = tmp_path / "M.csv", tmp_path / "w.csv"
    mat.write_text("1,2,0.5\n0.5,1,3\n2,0.3333,1\n")
    vec.write_text(vector + "\n")
    code, out, err = run_cli(capsys, "analyze", "--symmetrize", str(mat), "--vector", str(vec))
    assert (code, out, err) == (2, "", "error: vector entries must be positive and finite, "
                                       "with a finite ratio max(w)/min(w)\n")


def test_cli_reciprocity_error_prints_a_plain_float(tmp_path, capsys):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n1,1\n")
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out, err) == (2, "", "error: reciprocity violation at (1,2): "
                                       "a_ij*a_ji = 2.0\n")


@pytest.mark.parametrize("diag", ["1,inf,1", "1,1e-320,1"])
def test_cli_extend_rejects_a_bad_conjugate_diagonal(tmp_path, capsys, diag):
    path = tmp_path / "m.csv"
    save_matrix(random_reciprocal(3, seed=13), path)
    # a numpy RuntimeWarning fails the test: pyproject.toml makes it an error
    code, out, err = run_cli(capsys, "extend", str(path), "--conjugate-diag", diag)
    assert code == 2 and out == ""
    assert err.startswith("error: diagonal") and err.count("\n") == 1


@pytest.mark.parametrize("bad", ["inf", "nan", "0", "-1"])
def test_cli_sweep_rejects_a_bad_axis_value(capsys, bad):
    code, out, err = run_cli(capsys, "sweep", "--n", "5", "--axes", f"1,{bad}")
    assert (code, out, err) == (2, "", "error: axis values must be positive and finite\n")


@pytest.mark.parametrize("axes", ["", "1,,2"])
def test_cli_sweep_rejects_an_empty_axis_value(capsys, axes):
    # an empty --axes is a bad value, not an absent one
    code, out, err = run_cli(capsys, "sweep", "--n", "5", "--axes", axes)
    assert (code, out, err) == (
        2, "", f"error: --axes: expected comma-separated numbers, got {axes!r}\n")


def test_cli_extend_wide_order(tmp_path, capsys):
    # random_reciprocal(500, seed=0) missed the row-sum check when each
    # appended entry was formed as the difference s - r_i
    path = tmp_path / "m.csv"
    save_matrix(random_reciprocal(500, seed=0), path)
    code, out, err = run_cli(capsys, "extend", str(path))
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["base_order"] == 500 and payload["efficient"] is True
    assert payload["target_sum"] > 500


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



# sha256 of the report bytes as written by the parent of the array-native
# encoder.  The Perron cases read the solver's last bits, so a change to
# `core.perron_stack`'s arithmetic changes them too.
GOLDEN_REPORT_SHA256 = {
    ("perron", "out"): "8211d70fae0d695859be4281fe01dd9190aa26dabb2c1e6612e7f3aadd59d2a2",
    ("perron", "stdout"): "8f68619de19568573e6d3689146fdbc4a00656b2d3692c5a84b1020247c70995",
    ("vector", "out"): "fadb947de646276cb05a0fdba8403a4c2345a41289e6cd8e4067b3e3ea9e3d67",
    ("vector", "stdout"): "eff2f8c4c17a4065afa7ec123b52cabc6801fe25bc8d8fefdf53fa9c5a957681",
    ("z", "out"): "7ef399d1b324bd4550662b3c6b7e6d94591b43062407a14e35056f83a8a88f4c",
    ("z", "stdout"): "6bd4eae15d9cd9b5a6c1046d1b965714aa9ad143ecb8be016dbdf55a34397987",
}


@pytest.mark.parametrize("case, form", sorted(GOLDEN_REPORT_SHA256))
def test_cli_report_matches_golden_digest(tmp_path, capsys, case, form):
    A = random_reciprocal(60, seed=60)
    mat = tmp_path / "M.csv"
    save_matrix(A, mat)
    # the row geometric means with 15 items raised 1000-fold: inefficient,
    # two SCCs, so the certificate is written too
    w = np.exp(np.log(A.a).mean(axis=1))
    w[:15] *= 1e3
    vec = tmp_path / "w.csv"
    save_vector(w, vec)
    argv = {
        "perron": ["analyze", str(mat)],
        "vector": ["analyze", str(mat), "--vector", str(vec)],
        "z": ["z", "--n", "5", "--x", "0.2", "--y", "2", "--z", "0.5", "--a", "1.5"],
    }[case]
    out = tmp_path / "r.json"
    if form == "out":
        argv += ["--out", str(out)]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    text = out.read_bytes() if form == "out" else stdout.encode()
    assert hashlib.sha256(text).hexdigest() == GOLDEN_REPORT_SHA256[case, form]


def test_cli_analyze_names_both_sizes_of_a_vector_length_mismatch(tmp_path, capsys):
    mat = tmp_path / "M.csv"
    save_matrix(random_reciprocal(2, seed=4), mat)
    vec = tmp_path / "w.csv"
    vec.write_text("1,2,3\n")
    code, out, err = run_cli(capsys, "analyze", str(mat), "--vector", str(vec))
    assert code == 2 and out == ""
    assert err == "error: vector length mismatch: vector has 3 entries, matrix order is 2\n"


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


@pytest.mark.parametrize("command", ["analyze", "z", "sweep", "extend", "example-ee1",
                                     "verify"])
def test_every_subcommand_honours_out(tmp_path, capsys, command):
    mat = tmp_path / "M.csv"
    save_matrix(random_reciprocal(4, seed=14), mat)
    argv = {
        "analyze": ["analyze", str(mat)],
        "z": ["z", "--n", "5", "--x", "0.25", "--y", "2", "--z", "2", "--a", "0.5"],
        "sweep": ["sweep", "--n", "5", "--axes", "0.5,2"],
        "extend": ["extend", str(mat)],
        "example-ee1": ["example-ee1"],
        "verify": ["verify"],
    }[command]
    code, shown, _ = run_cli(capsys, *argv)
    out = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--out", str(out))[:2] == (code, "")
    written = out.read_text()
    if command in ("analyze", "z", "extend"):
        # printed JSON is indented; the file holds the same object, compact
        assert written == json.dumps(json.loads(shown)) + "\n"
    else:
        def timeless(text):
            return re.sub(r"checks passed in [0-9.]+s$", "checks passed", text, flags=re.M)
        assert shown and timeless(written) == timeless(shown)


def test_cli_example_walkthrough_reports_discrepancy(capsys):
    code, out, _ = run_cli(capsys, "example-ee1")
    assert code == 1
    assert "[FAIL] example1.bprime_perron_inefficient" in out
    assert out.count("[PASS]") == 9
    assert "9/10 steps passed" in out


def test_cli_example_names_an_eps_rel_that_is_not_the_default(monkeypatch, capsys):
    # as in verify's summary: the default output is unchanged, and elsewhere
    # the last line says which eps_rel the steps ran at
    monkeypatch.delenv("RECIP_EPS", raising=False)
    assert run_cli(capsys, "example-ee1")[1].splitlines()[-1] == "9/10 steps passed"
    assert run_cli(capsys, "example-ee1", "--eps-rel", "1e-9")[1].splitlines()[-1] == (
        "9/10 steps passed")
    assert run_cli(capsys, "example-ee1", "--eps-rel", "0.5") == (1, "\n".join(
        [f"[{'PASS' if s.passed else 'FAIL'}] {s.check_id}: {s.detail}"
         for s in example_walkthrough(0.5)]
        + ["9/10 steps passed at eps_rel=0.5 (default 1e-09)", ""]), "")
    monkeypatch.setenv("RECIP_EPS", "0")
    assert run_cli(capsys, "example-ee1")[1].splitlines()[-1].endswith(
        " steps passed at eps_rel=0.0 (default 1e-09)")


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


def test_cli_verify_names_an_eps_rel_that_is_not_the_default(monkeypatch, capsys):
    # at the default the output is unchanged; elsewhere the summary says which
    # eps_rel the checks ran at, so a count there is not read as the paper's
    seen = []

    def fake_suite(eps):
        seen.append(eps)
        return VerificationSummary("verify", 29, (("x.y", "boom"),), 0.1)

    monkeypatch.setattr(cli, "verify_paper_suite", fake_suite)
    monkeypatch.delenv("RECIP_EPS", raising=False)
    default = "FAIL x.y: boom\nFAIL: 28/29 checks passed in 0.100s\n"
    assert run_cli(capsys, "verify") == (1, default, "")
    assert run_cli(capsys, "verify", "--eps-rel", "1e-9") == (1, default, "")
    assert run_cli(capsys, "verify", "--eps-rel", "0.5")[1].splitlines()[-1] == (
        "FAIL at eps_rel=0.5 (default 1e-09): 28/29 checks passed in 0.100s")
    monkeypatch.setenv("RECIP_EPS", "0")
    assert run_cli(capsys, "verify")[1].splitlines()[-1] == (
        "FAIL at eps_rel=0.0 (default 1e-09): 28/29 checks passed in 0.100s")
    assert seen == [DEFAULT_EPS_REL, DEFAULT_EPS_REL, 0.5, 0.0]


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
