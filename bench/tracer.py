"""Outside-in tracing of recipeff's layers.

`Tracer.install` wraps every public function of the traced modules and
rebinds the wrapper under every name that refers to the original in every
loaded `recipeff` module (the package namespace included).  Calls made
through a module's globals, such as `digraph.analyze` calling
`build_digraph`, therefore pass through the wrapper, and nothing under
`src/` changes.  `uninstall` puts the originals back.

Each call records a span (name, start, end, parent span, op id) in memory.
Counters are taken in the same wrappers; when one does real work (hashing a
matrix, reading a file size) that work is recorded as a `trace.counters`
span so it is not charged to the layer that called the traced function.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("core", "digraph", "zfamily", "extensions", "matio", "harness", "cli")
COUNTER_SPAN = "trace.counters"


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(memoryview(arr).cast("B"))
    return h.digest()


class Tracer:
    """Span recorder; `begin_op`/`end_op` bracket each benchmark op."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.current = -1
        self.op_id = -1
        self.op_walls: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        # per-op sets of distinct inputs, and run-wide counts
        self._op_matrices: set[bytes] = set()
        self._op_instances: set[bytes] = set()
        self.distinct_matrices = 0
        self.distinct_instances = 0
        self.perron_iterations: list[int] = []
        self.perron_failures = 0
        self.edges_built = 0
        self.bytes_written = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind every public function of the traced layers."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"recipeff.{layer}"]
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "recipeff"
                                   or mod_name.startswith("recipeff.")):
                continue
            for name, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    self._saved.append((mod, name, val))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, val in reversed(self._saved):
            setattr(mod, name, val)
        self._saved.clear()

    def _wrap(self, span_name: str, fn):
        counter = {
            "core.perron": self._count_perron,
            "digraph.build_digraph": self._count_build,
            "matio.save_report": self._count_save,
        }.get(span_name)
        spans = self.spans

        def traced(*args, **kwargs):
            parent = self.current
            idx = len(spans)
            spans.append(None)
            self.current = idx
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                t1 = perf_counter_ns()
                self.current = parent
                spans[idx] = (span_name, t0, t1, parent, self.op_id)
                if counter is not None:
                    self._counted(counter, parent, args, kwargs, None, exc)
                raise
            t1 = perf_counter_ns()
            self.current = parent
            spans[idx] = (span_name, t0, t1, parent, self.op_id)
            if counter is not None:
                self._counted(counter, parent, args, kwargs, result, None)
            return result

        return functools.update_wrapper(traced, fn)

    def _counted(self, counter, parent, args, kwargs, result, exc) -> None:
        c0 = perf_counter_ns()
        counter(args, kwargs, result, exc)
        self.spans.append((COUNTER_SPAN, c0, perf_counter_ns(), parent, self.op_id))

    # -- counters ----------------------------------------------------------

    @staticmethod
    def _arg(args, kwargs, pos: int, name: str):
        return args[pos] if len(args) > pos else kwargs[name]

    def _count_perron(self, args, kwargs, result, exc) -> None:
        A = self._arg(args, kwargs, 0, "A")
        self._op_matrices.add(_digest(A.a))
        if exc is not None:
            if isinstance(exc, RuntimeError):
                self.perron_failures += 1
        else:
            self.perron_iterations.append(int(result.iterations))

    def _count_build(self, args, kwargs, result, exc) -> None:
        A = self._arg(args, kwargs, 0, "A")
        w = np.ascontiguousarray(self._arg(args, kwargs, 1, "w"), dtype=float)
        eps = args[2] if len(args) > 2 else kwargs.get("eps_rel")
        self._op_instances.add(_digest(A.a, w, np.array([-1.0 if eps is None else eps])))
        if result is not None:
            self.edges_built += len(result.edges)

    def _count_save(self, args, kwargs, result, exc) -> None:
        if exc is None:
            self.bytes_written += os.path.getsize(self._arg(args, kwargs, 1, "path"))

    # -- ops ---------------------------------------------------------------

    def begin_op(self) -> None:
        self.op_id += 1
        self.current = -1
        self._op_matrices.clear()
        self._op_instances.clear()

    def end_op(self, wall_ns: int) -> None:
        """Close the op, given its wall time as the caller measured it."""
        self.op_walls.append(wall_ns)
        self.distinct_matrices += len(self._op_matrices)
        self.distinct_instances += len(self._op_instances)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, int], int]:
        """(self ns by span name, calls by span name, top-level span ns)."""
        self_ns: dict[str, int] = defaultdict(int)
        calls: dict[str, int] = defaultdict(int)
        top_ns = 0
        for name, t0, t1, parent, _ in self.spans:
            dur = t1 - t0
            self_ns[name] += dur
            calls[name] += 1
            if parent < 0:
                top_ns += dur
            else:
                self_ns[self.spans[parent][0]] -= dur
        return dict(self_ns), dict(calls), top_ns

    def write(self, path: str, meta: dict) -> None:
        """Write the spans as gzipped JSON lines after a header line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "fields":
                                 ["name", "start_ns", "end_ns", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
