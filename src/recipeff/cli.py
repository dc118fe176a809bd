"""Command-line interface.

Subcommands map one-to-one onto library calls: analyze (matrix [+ vector]
-> JSON efficiency report), z (family parameters -> report + region
verdict), sweep (parameter grid -> CSV), extend (matrix -> extension
JSON), verify (bundled verification suite), example-ee1 (replay the
bundled worked example with pass/fail marks).

Exit codes: 0 success, 1 verification failure, 2 input error, a Perron
solve that did not converge, a failed certificate, or an array too large
to allocate, 141 (128 + SIGPIPE, as a shell reports it) when the reader
closes the output pipe early, with nothing on stderr.  The env var
RECIP_EPS overrides the default edge tolerance; an explicit --eps-rel flag
overrides both.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from .core import PerronConvergenceError
from .digraph import DEFAULT_EPS_REL, CertificateError, analyze
from .extensions import (
    conjugated_extension,
    constant_row_sum_extension,
    extension_report,
)
from .harness import (
    DEFAULT_AXES,
    example_walkthrough,
    grid_sweep,
    sweep_csv,
    verify_paper_suite,
)
from .matio import load_matrix, load_vector, report_json, report_to_dict, save_report
from .zfamily import ZParams, ZStack, guarantee_n4, guarantee_n5plus, z_matrix


def _resolve_eps(flag_value: float | None) -> float:
    if flag_value is not None:
        return flag_value
    env = os.environ.get("RECIP_EPS")
    if env is not None:
        try:
            return float(env)
        except ValueError:
            raise ValueError(f"RECIP_EPS is not a number: {env!r}") from None
    return DEFAULT_EPS_REL


def _emit(body: dict | list[str], out: str | None) -> None:
    """Write a JSON payload (compact, one line) or lines of text to `out`, or print them."""
    if out and isinstance(body, dict):
        return save_report(body, out)
    text = report_json(body, indent=2) if isinstance(body, dict) else "\n".join(body)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"{what}: expected comma-separated numbers, got {text!r}") from None


def _cmd_analyze(args: argparse.Namespace, eps: float) -> int:
    A = load_matrix(args.matrix, "symmetrize" if args.symmetrize else "validate")
    w = load_vector(args.vector) if args.vector else None
    _emit(report_to_dict(analyze(A, w, eps)), args.out)
    return 0


def _cmd_z(args: argparse.Namespace, eps: float) -> int:
    p = ZParams(args.n, args.x, args.y, args.z, args.a)
    s = ZStack(p.n, [p.xyza], eps) if p.n >= 5 else None
    rep = s.report(0) if s else analyze(z_matrix(p), eps_rel=eps)
    payload: dict = {
        "params": asdict(p),
        "report": report_to_dict(rep),
    }
    if s:
        payload["region"] = asdict(guarantee_n5plus(p))
        payload["sink_check"] = {k: getattr(s, k).item(0)
                                 for k in ("efficient", "sink_present", "sink_vertex", "agrees")}
    elif p.a == 1.0:
        payload["region"] = {
            "guaranteed_efficient": guarantee_n4(p.x, p.y, p.z),
            "matched_exception": None,
            "reduction_used": "identity",
        }
    else:
        payload["region"] = None
    _emit(payload, args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace, eps: float) -> int:
    axes = DEFAULT_AXES if args.axes is None else _parse_floats(args.axes, "--axes")
    _emit(sweep_csv(grid_sweep(args.n, axes, eps_rel=eps)), args.out)
    return 0


def _cmd_extend(args: argparse.Namespace, eps: float) -> int:
    A = load_matrix(args.matrix, "symmetrize" if args.symmetrize else "validate")
    if args.conjugate_diag is not None:
        d = np.array(_parse_floats(args.conjugate_diag, "--conjugate-diag"))
        ext, target_sum = conjugated_extension(A, d), None
    else:
        res = constant_row_sum_extension(A)
        ext, target_sum = res.B, res.target_sum
    _emit(extension_report(A, ext, target_sum, eps), args.out)
    return 0


def _at(eps: float) -> str:
    """A summary's note of an eps_rel other than the default, so its count is not read as the paper's."""
    return "" if eps == DEFAULT_EPS_REL else f" at eps_rel={eps!r} (default {DEFAULT_EPS_REL!r})"


def _cmd_verify(args: argparse.Namespace, eps: float) -> int:
    summary = verify_paper_suite(eps)
    lines = [f"FAIL {check_id}: {detail}" for check_id, detail in summary.failures]
    status = "FAIL" if summary.failures else "PASS"
    lines.append(
        f"{status}{_at(eps)}: {summary.checks - len(summary.failures)}/{summary.checks} "
        f"checks passed in {summary.wall_time:.3f}s"
    )
    _emit(lines, args.out)
    return 1 if summary.failures else 0


def _cmd_example(args: argparse.Namespace, eps: float) -> int:
    steps = example_walkthrough(eps)
    lines = [f"[{'PASS' if s.passed else 'FAIL'}] {s.check_id}: {s.detail}" for s in steps]
    nb_fail = sum(not s.passed for s in steps)
    lines.append(f"{len(steps) - nb_fail}/{len(steps)} steps passed{_at(eps)}")
    _emit(lines, args.out)
    return 1 if nb_fail else 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipeff",
        description="Efficiency of priority vectors for reciprocal matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--eps-rel", type=float, default=None,
                       help="relative edge tolerance (default 1e-9)")
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("analyze", help="efficiency report for a matrix CSV")
    p.add_argument("matrix", help="matrix CSV path")
    p.add_argument("--vector", default=None,
                   help="vector CSV path (default: Perron eigenvector)")
    p.add_argument("--symmetrize", action="store_true",
                   help="rebuild the lower triangle from the upper")
    add_common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("z", help="report and region verdict for Z_n(x,y,z,a)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_z)

    p = sub.add_parser("sweep", help="grid sweep over (x,y,z,a), CSV output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--axes", default=None,
                   help="comma-separated axis values (default 0.25,0.5,1,2,4)")
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("extend", help="order-(n+1) extension of a matrix CSV")
    p.add_argument("matrix", help="matrix CSV path")
    p.add_argument("--conjugate-diag", default=None, metavar="d1,...,dn",
                   help="positive diagonal for the conjugated construction "
                        "(default: the constant-row-sum construction)")
    p.add_argument("--symmetrize", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_extend)

    p = sub.add_parser("verify", help="run the bundled verification suite")
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("example-ee1",
                       help="replay the bundled worked example step by step")
    add_common(p)
    p.set_defaults(func=_cmd_example)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args, _resolve_eps(args.eps_rel))
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left (`sweep ... | head -1`); devnull takes the flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError, PerronConvergenceError, CertificateError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
