"""Command-line interface.

Subcommands map one-to-one onto library calls: analyze (matrix [+ vector]
-> JSON efficiency report), z (family parameters -> report + region
verdict), sweep (parameter grid -> CSV), extend (matrix -> extension
JSON), verify (bundled verification suite), example-ee1 (replay the
bundled worked example with pass/fail marks).

Exit codes: 0 success, 1 verification failure, 2 input error or a Perron
solve that did not converge.  The env
var RECIP_EPS overrides the default edge tolerance; an explicit
--eps-rel flag overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import PerronConvergenceError
from .digraph import DEFAULT_EPS_REL, analyze
from .extensions import (
    conjugated_extension,
    constant_row_sum_extension,
    extension_report,
)
from .harness import (
    DEFAULT_AXES,
    SWEEP_CSV_HEADER,
    example_walkthrough,
    grid_sweep,
    sweep_csv_row,
    verify_paper_suite,
)
from .matio import load_matrix, load_vector, report_to_dict, save_report
from .zfamily import ZParams, evaluate_z, guarantee_n4, guarantee_n5plus, z_matrix


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


def _emit(payload: dict, out: str | None) -> None:
    if out:
        save_report(payload, out)
    else:
        print(json.dumps(payload, indent=2))


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
    pt = evaluate_z(p, eps) if p.n >= 5 else None
    rep = pt.report if pt else analyze(z_matrix(p), eps_rel=eps)
    payload: dict = {
        "params": {"n": p.n, "x": p.x, "y": p.y, "z": p.z, "a": p.a},
        "report": report_to_dict(rep),
    }
    if pt:
        v = guarantee_n5plus(p)
        payload["region"] = {
            "guaranteed_efficient": v.guaranteed_efficient,
            "matched_exception": v.matched_exception,
            "reduction_used": v.reduction_used,
        }
        payload["sink_check"] = {
            "efficient": rep.efficient,
            "sink_present": pt.sink_present,
            "sink_vertex": pt.sink_vertex,
            "agrees": pt.agrees,
        }
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
    axes = _parse_floats(args.axes, "--axes") if args.axes else DEFAULT_AXES
    records = grid_sweep(args.n, axes, out=args.out, eps_rel=eps)
    if not args.out:
        print(SWEEP_CSV_HEADER)
        for rec in records:
            print(sweep_csv_row(rec))
    return 0


def _cmd_extend(args: argparse.Namespace, eps: float) -> int:
    A = load_matrix(args.matrix, "symmetrize" if args.symmetrize else "validate")
    if args.conjugate_diag is not None:
        if args.method == "constant-row-sum":
            raise ValueError("--method constant-row-sum does not take --conjugate-diag")
        d = np.array(_parse_floats(args.conjugate_diag, "--conjugate-diag"))
        ext = conjugated_extension(A, d)
        payload = extension_report(A, ext, None, eps)
    else:
        if args.method == "conjugate-diag":
            raise ValueError("--method conjugate-diag requires --conjugate-diag")
        res = constant_row_sum_extension(A)
        payload = extension_report(A, res.B, res.target_sum, eps)
    _emit(payload, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace, eps: float) -> int:
    summary = verify_paper_suite(eps)
    for check_id, detail in summary.failures:
        print(f"FAIL {check_id}: {detail}")
    status = "FAIL" if summary.failures else "PASS"
    print(
        f"{status}: {summary.checks - len(summary.failures)}/{summary.checks} "
        f"checks passed in {summary.wall_time:.1f}s"
    )
    return 1 if summary.failures else 0


def _cmd_example(args: argparse.Namespace, eps: float) -> int:
    steps = example_walkthrough(eps)
    for s in steps:
        mark = "PASS" if s.passed else "FAIL"
        print(f"[{mark}] {s.check_id}: {s.detail}")
    nb_fail = sum(not s.passed for s in steps)
    print(f"{len(steps) - nb_fail}/{len(steps)} steps passed")
    return 1 if nb_fail else 0


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
    p.add_argument("--method", choices=("constant-row-sum", "conjugate-diag"))
    p.add_argument("--conjugate-diag", default=None, metavar="d1,...,dn",
                   help="positive diagonal for the conjugated construction")
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
        eps = _resolve_eps(args.eps_rel)
        return args.func(args, eps)
    except (ValueError, OSError, PerronConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
