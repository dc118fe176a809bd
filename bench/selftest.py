"""Self-test of the benchmark at small size.

Run from the repository root:

    python3 bench/selftest.py

It checks that
  * each correctness gate accepts the library's real outputs and rejects
    every corrupted variant of them (small inputs, in process);
  * the speed correction keeps an injected slowdown at its raw share;
  * `run.py` emits exactly the end-to-end metrics (--trace 0) and the
    per-layer metrics (--trace 1) that BENCHMARK.json names, each with the
    unit given there, on every workload; that the spans cover all but a
    small share of each traced op; and that the listed self times fit
    within their modules' totals, which with the untraced remainder make
    up the traced wall time;
  * no op fails on any workload at the default seed;
  * `run.py` exits non-zero without a result where there is no library.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile

import run

run.pin_environment()
sys.path.insert(0, run.SRC)

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from recipeff import harness  # noqa: E402

SEED = 1
# most of an op's traced wall time that may fall outside every span
UNTRACED_MAX_SHARE = 0.01
# how far a corrected slowdown may stray from its true share
CALIBRATION_TOLERANCE = 0.10
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def trips(check, *args) -> bool:
    try:
        check(*args)
    except oracle.GateError:
        return True
    return False


# -- gates -------------------------------------------------------------------


def test_verify_gate(workdir: str) -> None:
    expected = tuple((cid, "detail") for cid in workloads.VERIFY_EXPECTED_FAILURES)
    good = harness.VerificationSummary("verify", workloads.VERIFY_CHECKS, expected, 0.0)
    wl = workloads.Verify(workdir)
    expect(not trips(wl.check, 0, good), "verify gate accepts 29 checks with the known failure")
    bad = {
        "a check missing": dataclasses.replace(good, checks=28),
        "an extra failure": dataclasses.replace(
            good, failures=expected + (("no_source.random_matrices", "1 of 1000"),)),
        "the known failure passing": dataclasses.replace(good, failures=()),
    }
    for name, summary in bad.items():
        expect(trips(wl.check, 0, summary), f"verify gate trips on {name}")


def test_analyze_gate(workdir: str) -> None:
    wl = workloads.AnalyzeLarge(workdir)
    wl.generate(SEED, orders=(8, 40))
    wl.load()
    for item in wl.items:
        code, kept = wl.record(item, wl.run(item))
        expect(not trips(wl.check, item, (code, kept)), f"analyze_large gate accepts {item}")
        with open(os.path.join(workdir, kept), encoding="utf-8") as fh:
            rep = json.load(fh)
        w = np.array(rep["perron_vector"])

        def corrupt(field, value):
            return {**rep, field: value}

        bad = {
            "a flipped verdict": corrupt("efficient", not rep["efficient"]),
            "a wrong SCC count": corrupt("scc_count", rep["scc_count"] + 1),
            "a missing edge": corrupt("edges", rep["edges"][:-1]),
            "wrong sources": corrupt("sources", rep["sources"] + [1]),
            "a wrong certificate": corrupt(
                "certificate", None if rep["certificate"] is not None else list(w)),
            "a perturbed vector": corrupt("perron_vector", list(w * (1 + 1e-6 * np.arange(len(w))))),
        }
        if rep["hamiltonian"]:
            bad["an invalid cycle"] = corrupt("hamiltonian", rep["hamiltonian"][::-1][1:] + [1])
        for k, (name, report) in enumerate(bad.items()):
            name_k = f"corrupt-{item}-{k}.json"
            with open(os.path.join(workdir, name_k), "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            expect(trips(wl.check, item, (0, name_k)),
                   f"analyze_large gate trips on {name} {item}")
        expect(trips(wl.check, item, (2, None)), f"analyze_large gate trips on exit code 2 {item}")


def test_spread_gate(workdir: str) -> None:
    wl = workloads.Spread(workdir)
    wl.generate(SEED, blocks=1)
    wl.load()
    for item in wl.items:
        rep = wl.record(item, wl.run(item))
        expect(not trips(wl.check, item, rep), f"spread gate accepts item {item}")
        w = rep.w
        bad = {
            "a perturbed Perron vector": dataclasses.replace(rep, w=w * (1 + 1e-6 * np.arange(len(w)))),
            "a flipped verdict": dataclasses.replace(rep, efficient=not rep.efficient),
            "a wrong SCC count": dataclasses.replace(rep, scc_count=rep.scc_count + 1),
            "a wrong certificate": dataclasses.replace(
                rep, certificate=None if rep.certificate is not None else w.copy()),
        }
        for name, report in bad.items():
            expect(trips(wl.check, item, report), f"spread gate trips on {name} (item {item})")
    # the parent's gate reads what the child recorded
    with open(os.path.join(workdir, run.OUTCOMES), "wb") as fh:
        pickle.dump((0, wl.record(0, wl.run(0)), None), fh)
    expect(run.gate(wl, workdir) == [], "the gate passes a recorded correct output")
    with open(os.path.join(workdir, run.OUTCOMES), "ab") as fh:
        pickle.dump((0, None, RuntimeError("perron: did not converge")), fh)
        pickle.dump((0, None, AssertionError("certificate failed")), fh)
    expect(len(run.gate(wl, workdir)) == 2, "the gate trips on every failed op")


# -- the speed correction ----------------------------------------------------


class Synthetic:
    """A stand-in workload of fixed work; a "slow" op works on with a large live heap."""

    stop_every = 1
    min_items = 1

    def __init__(self, items: list[str]) -> None:
        self.items = items

    @staticmethod
    def _work() -> None:
        x = np.arange(20_000.0)
        for _ in range(40):
            x = np.sqrt(x * x + 1.0)
        sum(i * i for i in range(60_000))

    def run(self, item) -> None:
        self._work()
        if item == "slow":
            heap = [(i, float(i)) for i in range(150_000)]
            self._work()
            del heap


def calibrated_loop(items: list[str], seconds: int) -> tuple[list[float], list[float]]:
    """Raw and corrected latencies in ms of a calibrated loop over `items`."""
    loop = run.Loop(Synthetic(items), seconds, lambda *_: None)
    with loop.cal:
        loop.run()
    raw = [ns / 1e6 for ns in loop.latencies_ns]
    speeds = [loop.cal.speed(t0, t1) for t0, t1 in loop.spans_ns]
    return raw, [ms / f for ms, f in zip(raw, speeds)]


def test_calibration() -> None:
    """The correction keeps an injected slowdown at its true share.

    The true share comes from one loop that alternates plain and slowed
    ops, so both see the same machine.  Then each kind runs in loops of its
    own, as the parent and a change would, alternated to cancel drift.  If
    the calibration chunks saw the op's own work (its heap, its
    collections), the slowed loops would get a larger speed factor and
    part of the slowdown would vanish from the corrected figure.  The
    tolerance covers the host's noise between one-second loops.
    """
    raw, _ = calibrated_loop(["plain", "slow"], 2)
    true = statistics.median(raw[1::2]) / statistics.median(raw[0::2])
    corrected: dict[str, list[float]] = {"plain": [], "slow": []}
    for kind in ("plain", "slow") * 2:
        corrected[kind].extend(calibrated_loop([kind], 1)[1])
    share = statistics.median(corrected["slow"]) / statistics.median(corrected["plain"])
    expect(true > 2 and abs(share / true - 1) <= CALIBRATION_TOLERANCE,
           f"the correction keeps an injected slowdown: x{true:.3f} in one loop, "
           f"x{share:.3f} corrected across loops")


# -- the command -------------------------------------------------------------


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def test_emission() -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run_bench(run.ROOT, wl, trace)
            tag = f"{wl} --trace {trace}"
            expect(proc.returncode == 0, f"{tag} exits 0 (stderr: {proc.stderr[-300:]!r})")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{tag} prints the four result keys")
            expect(result["correct"] is True and result["attempted"] >= 1,
                   f"{tag} is correct")
            m = result["metrics"]
            expect(set(m) == {e["name"] for e in listed},
                   f"{tag} emits exactly the {len(listed)} metrics of BENCHMARK.json")
            expect(all(e["name"] in m and m[e["name"]]["unit"] == e["unit"]
                       and isinstance(m[e["name"]]["value"], (int, float))
                       for e in listed),
                   f"{tag} gives every metric a number and its unit")
            if trace == 0:
                expect(all(m[e["name"]]["value"] != 0 for e in listed if e["name"] in m),
                       f"{tag} has no end-to-end metric at 0")
                expect(result["failed"] == 0, f"{tag} has no failed ops at seed {SEED}")
            else:
                wall = m["trace.wall_ms"]["value"]
                untraced = m["trace.untraced_ms"]["value"]
                expect(0 <= untraced <= UNTRACED_MAX_SHARE * wall,
                       f"{tag} spans cover the op: untraced {untraced:.4g} of "
                       f"{wall:.4g} ms/op")
                modules = {mod: m[f"{mod}.self_ms"]["value"] for mod in run.MODULES}
                listed = {mod: 0.0 for mod in run.MODULES}
                for span, kinds in run.LAYER_FUNCTIONS:
                    if "self_ms" in kinds:
                        listed[span.split(".")[0]] += m[f"{span}.self_ms"]["value"]
                expect(all(listed[mod] <= modules[mod] * (1 + 1e-9) + 1e-9
                           for mod in run.MODULES),
                       f"{tag} listed function self times fit within their modules")
                parts = sum(modules.values()) + m["trace.counters_ms"]["value"] + untraced
                expect(abs(parts - wall) <= 1e-6 * wall,
                       f"{tag} module self times plus the untraced remainder make the wall")


def test_without_library(scratch: str) -> None:
    bare = os.path.join(scratch, "bare")
    shutil.copytree(os.path.join(run.ROOT, "bench"), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = run_bench(bare, "verify", 0)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "run.py exits non-zero without a result when src/ is missing")


def main() -> int:
    os.makedirs(run.OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT_DIR)
    try:
        for name in ("verify", "analyze", "spread"):
            os.makedirs(os.path.join(scratch, name))
        test_verify_gate(os.path.join(scratch, "verify"))
        test_analyze_gate(os.path.join(scratch, "analyze"))
        test_spread_gate(os.path.join(scratch, "spread"))
        test_calibration()
        test_without_library(scratch)
        test_emission()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
