"""The benchmark's three workloads: inputs, one op each, and its gate.

Each workload is a closed loop with one caller, split over two processes.
The parent generates the inputs from the seed and writes them to a work
directory (`generate`), and later gates every output (`check`).  The timed
child reads them back and builds what the library needs (`load`); that is
all the set-up a `setup_s` sample times.  It then runs the ops (`run`) and
hands each output to the parent (`record`).  `items` is one pass of inputs.
The loop stops only after a whole group of `stop_every` items, and after
at least `min_items`, so every run sees the same mix of inputs.  The
library sees only the generated matrices and files.

verify
    One `harness.verify_paper_suite()` call, the `recipeff verify` path:
    thousands of tiny Perron solves and digraphs (n = 3..8), and the only
    workload that reaches `zfamily`, `extensions` and `harness`.  It has no
    inputs, so the seed changes nothing.
analyze_large
    `recipeff analyze M.csv [--vector w.csv] --out r.json` in process, at
    seven orders from 50 to 400.  Orders 50, 167, 283 and 400 use the
    Perron vector; orders 108, 225 and 342 supply the row geometric-mean
    vector with a random quarter of its items scaled up until nothing
    outside them reaches them, so that vector is inefficient with more than
    one SCC and the certificate path runs.  Digraph construction, SCCs and
    CSV/JSON IO dominate.  One input per order keeps the median and the
    tail op inside one input's group of samples.
spread
    `digraph.analyze(A)` on seeded random reciprocal matrices with entry
    spread 1e2..1e4 and orders 6..12: long Perron convergence.  Every op
    must succeed, so only matrices whose power iteration is predicted to
    converge well before its 100,000-iteration cap are drawn (see
    `SPREAD_EASY_MAX`), and none whose Perron vector is inefficient: on
    those, the library's own certificate check can raise AssertionError,
    because its absolute 1e-12 dominance slack is below the rounding of
    ratios near 1e4.  The certificate path is measured on `analyze_large`.
    Matrices are drawn in blocks of eight, with
    s = (max_i w_i / w_1) / (1 - |lambda_2| / lambda_1) < 64, computed
    with numpy.linalg.eig, and one each in eight bins of
    k = log((max_i w_i / w_1) / 1e-14) / -log(|lambda_2| / lambda_1),
    the power iteration's expected step count, which predicts an op's time
    closely.  Over twelve seeds, the median op's Perron iteration count
    spreads by 0.10 (quartile distance over median) without these bins,
    and by 0.012 with them.  The last bin stops at 400 steps, so the
    slowest matrices of a seed, which set `latency_tail_ms`, are about as
    slow on every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

import oracle
from oracle import require
from recipeff import cli, core, digraph, harness

VERIFY_CHECKS = 29
VERIFY_EXPECTED_FAILURES = ("example1.bprime_perron_inefficient",)

ANALYZE_ORDERS = (50, 108, 167, 225, 283, 342, 400)
ANALYZE_LOG_SPAN = np.log(9.0)  # entries log-uniform in [1/9, 9]
ANALYZE_MIN_PASSES = 6

SPREAD_ORDERS = (6, 12)  # inclusive
SPREAD_LOG10 = (2.0, 4.0)  # entry spread 10**U(2, 4)
SPREAD_BLOCKS = 32
# above this s, some matrices leave rounding jitter above the solver's
# absolute stop rule once w is scaled to w_1 = 1, and the library raises
# RuntimeError at its iteration cap (ROADMAP: no 100,000-iteration stalls)
SPREAD_EASY_MAX = 64.0
SPREAD_STOP = 1e-14  # the power iteration's absolute stop rule
# octiles of k among matrices with s < 64, so each bin holds one eighth of
# them; the last bin stops at 400 steps instead of running on to about 1,000
SPREAD_STEP_EDGES = (0.0, 87.0, 104.0, 122.0, 145.0, 171.0, 211.0, 289.0, 400.0)
SPREAD_BLOCK = len(SPREAD_STEP_EDGES) - 1

PLAN = "plan.json"


def _write_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(",".join(repr(float(v)) for v in row) for row in rows))
        fh.write("\n")


class Workload:
    """One workload over the inputs in `workdir`.

    Parent side: `generate(seed)`, then `check(item, record)` per output.
    Child side: `load()`, then `run(item)` per op and `record(item, out)`
    for what the parent's gate needs.
    """

    name = ""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.items: list = []
        self.stop_every = 1
        self.min_items = 1

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def generate(self, seed: int) -> None:
        """Write the inputs and the plan (items and stop rule)."""
        with open(self._path(PLAN), "w", encoding="utf-8") as fh:
            json.dump({"items": self.items, "stop_every": self.stop_every,
                       "min_items": self.min_items}, fh)

    def load(self) -> None:
        """Read the plan back; subclasses then build the library's inputs."""
        with open(self._path(PLAN), encoding="utf-8") as fh:
            plan = json.load(fh)
        self.items = plan["items"]
        self.stop_every = plan["stop_every"]
        self.min_items = plan["min_items"]

    def record(self, item, out):
        """What the gate needs of one output; must pickle."""
        return out


class Verify(Workload):
    name = "verify"

    def generate(self, seed: int) -> None:
        self.items = [0]
        super().generate(seed)

    def run(self, item):
        return harness.verify_paper_suite()

    def check(self, item, summary) -> None:
        require(summary.checks == VERIFY_CHECKS,
                f"verify: {summary.checks} checks, expected {VERIFY_CHECKS}")
        ids = tuple(cid for cid, _ in summary.failures)
        require(ids == VERIFY_EXPECTED_FAILURES,
                f"verify: failing checks {ids}, expected {VERIFY_EXPECTED_FAILURES}")


class AnalyzeLarge(Workload):
    name = "analyze_large"

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self.out = self._path("report.json")
        self._kept: set[str] = set()  # report copies the child has kept
        self._checked: set[str] = set()  # kept reports the parent has gated

    def _argv(self, k: int) -> list[str]:
        argv = ["analyze", self._path(f"M{k}.csv"), "--out", self.out]
        if os.path.exists(self._path(f"w{k}.csv")):
            argv[2:2] = ["--vector", self._path(f"w{k}.csv")]
        return argv

    def generate(self, seed: int, orders=ANALYZE_ORDERS) -> None:
        rng = np.random.default_rng(seed)
        self.mats: list[np.ndarray] = []
        self.vecs: list[np.ndarray | None] = []  # None: use the Perron vector
        for k, n in enumerate(orders):
            a = oracle.canonical(np.exp(rng.uniform(-ANALYZE_LOG_SPAN, ANALYZE_LOG_SPAN, (n, n))))
            _write_csv(self._path(f"M{k}.csv"), a)
            w = None
            if k % 2:
                w = np.exp(np.log(a).mean(axis=1))
                inside = np.zeros(n, dtype=bool)
                inside[rng.choice(n, size=n // 4, replace=False)] = True
                # no edge (j, i) from outside into the block once
                # c * w_i / w_j > 1 / (a_ji (1 - eps)) for all i inside, j outside
                need = w[~inside][:, None] / (w[inside][None, :] * a[np.ix_(~inside, inside)])
                w[inside] *= 2.0 * need.max() / (1.0 - oracle.EPS_REL)
                _write_csv(self._path(f"w{k}.csv"), [w])
            self.mats.append(a)
            self.vecs.append(w)
        self.items = list(range(len(orders)))
        self.stop_every = len(self.items)
        # with six passes or more, the tail op (the 11th slowest) is one of
        # the order-342 samples rather than the edge of a group
        self.min_items = ANALYZE_MIN_PASSES * len(self.items)
        super().generate(seed)

    def load(self) -> None:
        super().load()
        self.argvs = [self._argv(k) for k in self.items]

    def run(self, k):
        return cli.main(self.argvs[k])

    def record(self, k, code):
        """(exit code, name of a kept copy of the report, or None).

        Each distinct report is copied once; the file is hashed in chunks,
        so the child's memory does not hold it.
        """
        if code != 0 or not os.path.exists(self.out):
            return code, None
        with open(self.out, "rb") as fh:
            digest = hashlib.file_digest(fh, "blake2b").hexdigest()[:32]
        kept = f"report-{k}-{digest}.json"
        if kept not in self._kept:
            shutil.copyfile(self.out, self._path(kept))
            self._kept.add(kept)
        return code, kept

    def check(self, k, record) -> None:
        code, kept = record
        what = f"analyze_large order {len(self.mats[k])} " + (
            "Perron vector" if self.vecs[k] is None else "supplied vector")
        require(code == 0, f"{what}: exit code {code}")
        require(kept is not None, f"{what}: no report written")
        if kept in self._checked:
            return
        with open(self._path(kept), "rb") as fh:
            self.check_report(k, json.loads(fh.read()), what)
        self._checked.add(kept)

    def check_report(self, k: int, rep: dict, what: str) -> None:
        a, supplied = self.mats[k], self.vecs[k]
        w = np.array(rep["perron_vector"], dtype=float)
        if supplied is None:
            oracle.check_perron_residual(a, w, rep["perron_value"], what)
        else:
            require(np.array_equal(w, supplied), f"{what}: vector changed")
            require(rep["perron_value"] is None, f"{what}: Perron value given")
        adj = oracle.check_verdict(a, w, rep["efficient"], rep["scc_count"],
                                   rep["certificate"], what)
        if supplied is not None:
            require(not rep["efficient"], f"{what}: rescaled vector reported efficient")
        edges = np.array(rep["edges"], dtype=int).reshape(-1, 2)
        require(np.array_equal(edges, np.argwhere(adj) + 1),
                f"{what}: {len(edges)} edges reported, rebuilt digraph has "
                f"{int(adj.sum())}")
        require(rep["sources"] == oracle.sources(adj), f"{what}: sources differ")
        require(rep["sinks"] == oracle.sinks(adj), f"{what}: sinks differ")
        oracle.check_hamiltonian(adj, rep["hamiltonian"], what)
        require(rep["eps_rel"] == oracle.EPS_REL, f"{what}: eps_rel {rep['eps_rel']}")


def _spread_matrix(rng: np.random.Generator, step_bin: int) -> np.ndarray:
    """One spread matrix with an efficient Perron vector, in `step_bin`."""
    batch = 32
    lo, hi = SPREAD_STEP_EDGES[step_bin], SPREAD_STEP_EDGES[step_bin + 1]
    while True:
        n = int(rng.integers(SPREAD_ORDERS[0], SPREAD_ORDERS[1] + 1))
        iu, ju = np.triu_indices(n, k=1)
        log_spread = np.log(10.0) * rng.uniform(*SPREAD_LOG10, size=batch)
        upper = np.exp(rng.uniform(-1.0, 1.0, (batch, len(iu))) * log_spread[:, None])
        a = np.ones((batch, n, n))
        a[:, iu, ju] = upper
        a[:, ju, iu] = 1.0 / upper
        ev, vecs = np.linalg.eig(a)
        mods = np.sort(np.abs(ev), axis=1)
        rho = mods[:, -2] / mods[:, -1]
        top = np.argmax(ev.real, axis=1)
        v = np.abs(np.take_along_axis(vecs, top[:, None, None], axis=2)[:, :, 0].real)
        scale = v.max(axis=1) / v[:, 0]
        steps = np.log(scale / SPREAD_STOP) / -np.log(rho)
        ok = (scale / (1.0 - rho) < SPREAD_EASY_MAX) & (steps >= lo) & (steps < hi)
        for b in np.flatnonzero(ok):
            if oracle.scc_count(oracle.ratio_adjacency(a[b], v[b])) == 1:
                return a[b]


class Spread(Workload):
    name = "spread"

    def generate(self, seed: int, blocks: int = SPREAD_BLOCKS) -> None:
        rng = np.random.default_rng(seed)
        self.mats = [_spread_matrix(rng, int(step_bin))
                     for _ in range(blocks) for step_bin in rng.permutation(SPREAD_BLOCK)]
        np.savez(self._path("mats.npz"), *self.mats)
        self.items = list(range(len(self.mats)))
        self.stop_every = SPREAD_BLOCK
        super().generate(seed)

    def load(self) -> None:
        super().load()
        with np.load(self._path("mats.npz")) as z:
            self.inputs = [core.make_reciprocal(z[f"arr_{i}"]) for i in self.items]

    def run(self, item):
        return digraph.analyze(self.inputs[item])

    def check(self, item, rep) -> None:
        a = self.mats[item]
        what = f"spread instance {item} (n={len(a)})"
        w = np.asarray(rep.w, dtype=float)
        oracle.check_perron_eig(a, w, what)
        oracle.check_verdict(a, w, rep.efficient, rep.scc_count, rep.certificate, what)


WORKLOADS = {cls.name: cls for cls in (Verify, AnalyzeLarge, Spread)}
