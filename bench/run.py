"""End-to-end and per-layer benchmark of recipeff.

Run from the repository root:

    python3 bench/run.py --workload verify|analyze_large|spread \
        --seed N --seconds S --trace 0|1

The run uses two processes.  This one, the parent, writes the workload's
inputs from the seed to a work directory, times the set-up, starts one
child that runs the ops, and gates every output the child hands back with
the benchmark's own numpy oracle.  The child is one caller with no worker
threads, and BLAS is pinned to one thread before numpy is imported.  It
imports the library from `src/`, reads the inputs back, runs one untimed
warm-up group of inputs, and then stops at the first whole group (see
workloads.py) after S seconds of op time.  Neither input generation nor
the gates run in the child, so its peak memory is the library's.
Op times and set-up times are corrected for the machine's speed, sampled
by a fixed calibration loop (see Calibration); the raw values are printed
too.

--trace 0 reports the end-to-end metrics: setup_s (median time of fresh
processes that import recipeff and read the inputs back into the
library's types), ops_per_s, latency_p50_ms, latency_tail_ms (the highest
percentile with at least ten samples and 1% of them beyond it, or the
maximum when a run has ten ops or fewer) and peak_rss_mb (the child's peak
resident set).
--trace 1 runs every op twice, untraced and traced, alternating which
goes first, and reports the per-layer metrics from the traced half; spans
are written to .bench_out/.  Per-op metrics are averaged over the traced
ops.

Lines before the last describe the environment and the metrics; the last
line is one JSON object with keys correct, attempted, failed and metrics.
The exit code is 0 when every output passed its gate, 1 when one did not
or the child failed, and 2 when the library cannot be found.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_RUNS = 15
SETUP_CAL_CHUNKS = 30
CAL_PERIOD_S = 0.01
CAL_ITERATIONS = 50
CAL_NOMINAL_NS = 1_100_000  # one chunk on a quiet 2-vCPU 2.1 GHz Xeon host
CAL_WINDOW_NS = 250_000_000
SETUP_TIMEOUT_S = 30
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "recipeff")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MODULES = ("core", "digraph", "zfamily", "extensions", "matio", "harness", "cli")
OUTCOMES = "outcomes.pickle"
RESULT = "result.pickle"

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# (function span, metric suffixes) reported per op from the traced run
LAYER_FUNCTIONS = (
    ("core.perron", ("calls", "self_ms")),
    ("core.make_reciprocal", ("calls", "self_ms")),
    ("digraph.build_digraph", ("calls", "self_ms")),
    ("digraph.strongly_connected", ("calls", "self_ms")),
    ("digraph.dominating_vector", ("self_ms",)),
    ("digraph.hamiltonian_cycle", ("calls", "self_ms")),
    ("digraph.analyze", ("self_ms",)),
    ("matio.load_matrix", ("self_ms",)),
    ("matio.report_to_dict", ("self_ms",)),
    ("matio.save_report", ("self_ms",)),
    ("zfamily.z_matrix", ("calls",)),
    ("zfamily.sink_characterization", ("self_ms",)),
    ("zfamily.eigen_identity_residuals", ("self_ms",)),
    ("zfamily.verify_table_claims", ("self_ms",)),
    ("extensions.extension_source_scan", ("self_ms",)),
    ("harness.grid_sweep", ("self_ms",)),
    ("harness.verify_paper_suite", ("self_ms",)),
    ("cli.main", ("self_ms",)),
)


def pin_environment() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def parse_args(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("verify", "analyze_large", "spread"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # the parent starts itself with these to time set-up or to run the ops
    p.add_argument("--child", choices=("setup", "measure"), help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if args.child and not args.workdir:
        p.error("--child needs --workdir")
    return args


# -- environment -------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args) -> dict:
    """The measuring child's environment (BLAS and threads as the ops saw them)."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": blas_threads(),
        "threads": threading.active_count(), "git_commit": git_commit(),
    }


# -- measurement -------------------------------------------------------------


class Calibration:
    """A fixed numpy-and-Python loop that clocks the machine.

    The machine's speed drifts by tens of percent within seconds (other
    tenants share its cores), and op times drift with it.  While active, an
    interval timer interrupts the process every CAL_PERIOD_S and runs one
    chunk of this loop, which does not use recipeff, so the chunks sample
    the machine's speed while the ops run.  The collector is off during a
    chunk, so a chunk never pays for a collection of the library's heap.
    The time spent in chunks is kept in `stolen_ns` so ops can leave it
    out, and `speed(t0, t1)` is the mean chunk time near an interval over
    CAL_NOMINAL_NS.  `sample(k)` runs k chunks at once, for work that is
    timed from outside the process.
    """

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._a = np.exp(np.sin(np.arange(81.0)).reshape(9, 9))
        self._ones = np.ones(9)
        self._busy = False
        self.stolen_ns = 0
        self.starts: list[int] = []
        self.durations: list[int] = []

    def chunk(self) -> int:
        """Half small numpy mat-vecs, half Python objects and JSON text."""
        np, a, w = self._np, self._a, self._ones
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter_ns()
            for _ in range(CAL_ITERATIONS):
                v = a @ w
                v /= v[0]
                np.max(np.abs(v - w))
                w = v
            edges = frozenset((i, j) for i in range(16) for j in range(16) if (i * 7 + j) % 3)
            json.dumps(sorted(edges), indent=2)
            return time.perf_counter_ns() - t0
        finally:
            if enabled:
                gc.enable()

    def sample(self, chunks: int) -> float:
        """Median time of `chunks` chunks run now, over nominal.

        Two chunks run first, untimed, to warm the caches the previous
        work left cold.
        """
        self.chunk()
        self.chunk()
        return statistics.median(self.chunk() for _ in range(chunks)) / CAL_NOMINAL_NS

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter_ns()
        try:
            self.durations.append(self.chunk())
            self.starts.append(t0)
        finally:
            self.stolen_ns += time.perf_counter_ns() - t0
            self._busy = False

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, t0: int, t1: int) -> float:
        """Mean chunk time within CAL_WINDOW_NS of [t0, t1], over nominal."""
        lo = bisect.bisect_left(self.starts, t0 - CAL_WINDOW_NS)
        hi = bisect.bisect_right(self.starts, t1 + CAL_WINDOW_NS)
        near = self.durations[lo:hi] or self.durations
        return statistics.fmean(near) / CAL_NOMINAL_NS if near else 1.0


def child_cmd(args, mode: str, workdir: str) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--child", mode, "--workdir", workdir]


def time_setup(args, workdir: str) -> tuple[float, float]:
    """(corrected, raw) median wall time of SETUP_RUNS set-up children.

    A child starts the interpreter, imports recipeff and reads the inputs
    back into the library's types.  Each time is divided by the machine's
    speed, sampled by calibration chunks just before and just after that
    child (never while it runs, which would slow it down).
    """
    cal = Calibration()
    cmd = child_cmd(args, "setup", workdir)
    raw, corrected = [], []
    for _ in range(SETUP_RUNS):
        before = cal.sample(SETUP_CAL_CHUNKS)
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                       stdin=subprocess.DEVNULL)
        dt = time.perf_counter() - t0
        speed = (before + cal.sample(SETUP_CAL_CHUNKS)) / 2
        raw.append(dt)
        corrected.append(dt / speed)
    return statistics.median(corrected), statistics.median(raw)


class Loop:
    """Closed loop: one op at a time; each output goes to `sink` untimed."""

    def __init__(self, wl, seconds: int, sink, tracer=None) -> None:
        self.wl = wl
        self.seconds = seconds
        self.sink = sink
        self.tracer = tracer
        self.cal = Calibration()  # used by untraced runs only
        self.latencies_ns: list[int] = []  # untraced ops only
        self.spans_ns: list[tuple[int, int]] = []  # their start and end
        self.traced_ns = 0
        self.attempted = 0
        self.failed = 0

    def _call(self, item):
        try:
            return self.wl.run(item), None
        except Exception as e:  # an op that raises counts as failed
            return None, e

    def _op(self, item, traced: bool) -> tuple[int, int]:
        """Run one op and hand on its output; returns its start and time in ns."""
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.install()
            tracer.begin_op()
        stolen = self.cal.stolen_ns
        t0 = time.perf_counter_ns()
        out, exc = self._call(item)
        dt = time.perf_counter_ns() - t0 - (self.cal.stolen_ns - stolen)
        if tracer is not None:
            tracer.end_op(dt)
            tracer.uninstall()
        self.attempted += 1
        self.failed += exc is not None
        self.sink(item, out, exc)
        return t0, dt

    def warm_up(self) -> None:
        """Run one group of inputs, untimed and uncounted; outputs are gated.

        The first calls pay for lazy set-up and for the interpreter
        specializing hot code; a long-lived caller pays that once.
        """
        for item in self.wl.items[:self.wl.stop_every]:
            gc.collect()
            self.sink(item, *self._call(item))

    def run(self) -> None:
        wl = self.wl
        self.warm_up()
        # move the interpreter's, numpy's and the inputs' objects out of the
        # collector's reach, so the full collection before each op costs
        # microseconds, not milliseconds; the ops' own objects stay in it
        gc.collect()
        gc.freeze()
        budget = self.seconds * 1_000_000_000
        deadline = time.perf_counter() + 2 * self.seconds + 30
        busy = 0
        i = 0
        while True:
            item = wl.items[i % len(wl.items)]
            i += 1
            # start every op from the same collector state, not the garbage
            # and allocation counts the previous op left
            gc.collect()
            for traced in ((False,) if self.tracer is None
                           else (True, False) if i % 2 else (False, True)):
                t0, dt = self._op(item, traced)
                busy += dt
                if traced:
                    self.traced_ns += dt
                else:
                    self.latencies_ns.append(dt)
                    self.spans_ns.append((t0, t0 + dt))
            if i % wl.stop_every == 0 and i >= wl.min_items and busy >= budget:
                break
            if time.perf_counter() > deadline:
                print(f"# stopped at the wall-clock deadline after {i} items",
                      file=sys.stderr)
                break


def latency_summary(lat_ms: list[float]) -> tuple[float, float, float, float]:
    """(ops per second, p50, tail, tail percentile) of op latencies in ms.

    The tail is the highest percentile with at least ten samples and 1% of
    them beyond it, or the maximum when there are ten samples or fewer.
    The 1% keeps a run of thousands of ops from reporting the host's
    rarest stalls rather than its slowest inputs.
    """
    lat = sorted(lat_ms)
    n = len(lat)
    if n > 10:
        beyond = max(10, n // 100)
        tail, pct = lat[n - 1 - beyond], 100.0 * (n - beyond) / n
    else:
        tail, pct = lat[-1], 100.0
    return n / (sum(lat) / 1e3), statistics.median(lat), tail, pct


def end_to_end_metrics(res: dict, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    raw = [ns / 1e6 for ns in res["latencies_ns"]]
    speeds = res["speeds"]
    ops_per_s, p50, tail, pct = latency_summary([ms / f for ms, f in zip(raw, speeds)])
    n = len(raw)
    raw_ops, raw_p50, raw_tail, _ = latency_summary(raw)
    setup_s, raw_setup_s = setup
    print(f"# raw setup_s {raw_setup_s:.6g} ops_per_s {raw_ops:.6g} latency_p50_ms "
          f"{raw_p50:.6g} latency_tail_ms {raw_tail:.6g} ; mean speed factor "
          f"{statistics.fmean(speeds):.4f} from {res['chunks']} calibration chunks")
    values = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = [
        f"latency_tail_ms is p{pct:.2f} of {n} ops"
        + (" (the maximum: ten ops or fewer)" if n <= 10 else ""),
        f"failed_share {res['failed'] / res['attempted']:.6f} "
        f"({res['failed']} of {res['attempted']} ops)",
    ]
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END}, notes


def source_lines() -> dict[str, int]:
    lines = {}
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                lines[name[:-3]] = sum(1 for _ in fh)
    return lines


def layer_metrics(loop: Loop) -> dict:
    from tracer import COUNTER_SPAN

    t = loop.tracer
    self_ns, calls, top_ns = t.self_times()
    ops = len(t.op_walls)
    wall = sum(t.op_walls)
    m: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = {"value": value, "unit": unit}

    for span, kinds in LAYER_FUNCTIONS:
        if "calls" in kinds:
            put(f"{span}.calls", calls.get(span, 0) / ops, "calls/op")
        if "self_ms" in kinds:
            put(f"{span}.self_ms", self_ns.get(span, 0) / 1e6 / ops, "ms/op")
    its = sorted(t.perron_iterations)
    put("core.perron.calls_per_matrix",
        calls.get("core.perron", 0) / t.distinct_matrices if t.distinct_matrices else 0.0,
        "ratio")
    put("core.perron.iterations_p50", statistics.median(its) if its else 0.0, "count")
    put("core.perron.iterations_max", float(its[-1]) if its else 0.0, "count")
    put("core.perron.failures", t.perron_failures / ops, "count/op")
    put("digraph.build_digraph.calls_per_instance",
        calls.get("digraph.build_digraph", 0) / t.distinct_instances
        if t.distinct_instances else 0.0, "ratio")
    put("digraph.edges_built", t.edges_built / ops, "count/op")
    put("matio.bytes_written", t.bytes_written / ops, "bytes/op")
    for mod in MODULES:
        put(f"{mod}.self_ms", sum(v for k, v in self_ns.items()
                                  if k.startswith(mod + ".")) / 1e6 / ops, "ms/op")
    put("trace.counters_ms", self_ns.get(COUNTER_SPAN, 0) / 1e6 / ops, "ms/op")
    put("trace.untraced_ms", (wall - top_ns) / 1e6 / ops, "ms/op")
    put("trace.wall_ms", wall / 1e6 / ops, "ms/op")
    put("trace.ops", float(ops), "count")
    untraced = sum(loop.latencies_ns)
    put("trace.overhead_share",
        (loop.traced_ns - untraced) / untraced if untraced else 0.0, "share")
    lines = source_lines()
    for mod in MODULES + ("__init__",):
        put(f"{mod.strip('_')}.lines", float(lines.get(mod, 0)), "lines")
    put("src.lines", float(sum(lines.values())), "lines")
    return m


# -- the child ---------------------------------------------------------------


def child_main(args) -> int:
    """Set up (and, to measure, run the ops); results go to the work directory."""
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.workdir)
    wl.load()
    if args.child == "setup":
        return 0
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    with open(os.path.join(args.workdir, OUTCOMES), "wb") as fh:

        def sink(item, out, exc) -> None:
            # one record at a time, so the child never holds the outputs
            rec = None if exc is not None else wl.record(item, out)
            try:
                data = pickle.dumps((item, rec, exc))
            except Exception:  # the gate then reports it as an unexpected error
                what = type(exc if exc is not None else rec).__name__
                data = pickle.dumps((item, None, RuntimeError(f"cannot hand over a {what}")))
            fh.write(data)

        loop = Loop(wl, args.seconds, sink, tracer)
        if tracer is None:
            with loop.cal:
                loop.run()
        else:
            loop.run()
    res = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "latencies_ns": loop.latencies_ns,
        "speeds": [loop.cal.speed(t0, t1) for t0, t1 in loop.spans_ns],
        "chunks": len(loop.cal.durations),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "env": environment(args),
    }
    if tracer is not None:
        res["layer"] = layer_metrics(loop)
        res["spans"] = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.write(res["spans"], res["env"])
    with open(os.path.join(args.workdir, RESULT), "wb") as fh:
        pickle.dump(res, fh)
    return 0


def gate(wl, workdir: str) -> list[str]:
    """Check every output the child recorded; returns the failures."""
    errors = []
    with open(os.path.join(workdir, OUTCOMES), "rb") as fh:
        while True:
            try:
                item, rec, exc = pickle.load(fh)
            except EOFError:
                return errors
            try:
                if exc is None:
                    wl.check(item, rec)
                else:  # every workload's inputs are ones no op may fail on
                    errors.append(f"{wl.name} item {item!r}: {exc!r}")
            except (AssertionError, LookupError, TypeError, ValueError) as e:
                # a malformed output fails its gate like a wrong one
                errors.append(f"{wl.name} item {item!r}: {e!r}")


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"error: no recipeff package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import recipeff

    if os.path.realpath(os.path.dirname(recipeff.__file__)) != os.path.realpath(PACKAGE):
        print(f"error: recipeff imported from {recipeff.__file__}, not {PACKAGE}",
              file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        t0 = time.perf_counter()
        wl.generate(args.seed)
        print(f"# inputs generated in {time.perf_counter() - t0:.3f} s (not in setup_s)")
        setup = time_setup(args, workdir) if args.trace == 0 else None
        budget = 3 * args.seconds + 90
        try:
            child = subprocess.run(child_cmd(args, "measure", workdir), cwd=ROOT,
                                   stdin=subprocess.DEVNULL, timeout=budget)
        except subprocess.TimeoutExpired:
            print(f"error: the measuring child ran over {budget} s", file=sys.stderr)
            return 1
        if child.returncode != 0:
            print(f"error: the measuring child exited {child.returncode}", file=sys.stderr)
            return 1
        with open(os.path.join(workdir, RESULT), "rb") as fh:
            res = pickle.load(fh)
        errors = gate(wl, workdir)
        print("# env " + json.dumps(res["env"], sort_keys=True))
        if args.trace:
            metrics = res["layer"]
            notes = [f"spans written to {os.path.relpath(res['spans'], ROOT)}"]
        else:
            metrics, notes = end_to_end_metrics(res, setup)
        for name, m in metrics.items():
            print(f"# {name} {m['value']:.6g} {m['unit']}")
        for note in notes:
            print(f"# {note}")
        for err in errors:
            print(f"GATE FAILED: {err}", file=sys.stderr)
        correct = not errors
        print(json.dumps({"correct": correct, "attempted": res["attempted"],
                          "failed": res["failed"], "metrics": metrics}))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
