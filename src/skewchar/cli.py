"""Command line interface.

Subcommands: expand, eval, classify, witness, certify, probe.
All output is deterministic plain text; seeded commands print their seed in
a header so runs can be reproduced exactly.

Exit codes: 0 success, 1 a witness search that found no rational zero
within its budget, 2 input error, 3 dimension cap exceeded, 4 witness proved
that no rational zero exists (the form is anisotropic at a prime p).  In
both witness cases classify still prints its verdict and exits 0.

The argument parser is built once per process (build_parser is cached), so
repeated in-process calls of main() neither rebuild it nor leave its
reference cycles behind as garbage.  Matrix files are read by the
from_text methods of matrices, which parse each distinct token once per file.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .analyzer import classify, sign_probe
from .engine import (
    DEFAULT_MAX_DIM,
    ExpansionTooLarge,
    certify_positive,
    eval_skewchar,
    expand_skewchar,
)
from .matrices import MatrixParseError, SkewMatrix, SymmetricMatrix


def _read(path: str, parse):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except MatrixParseError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_expand(args: argparse.Namespace) -> int:
    a = _read(args.matrix, SymmetricMatrix.from_text)
    print(expand_skewchar(a, max_dim=args.max_dim))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    a = _read(args.matrix, SymmetricMatrix.from_text)
    l = _read(args.skew, SkewMatrix.from_text)
    print(eval_skewchar(a, l))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    a = _read(args.matrix, SymmetricMatrix.from_text)
    print(classify(a).to_text(), end="")
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    a = _read(args.matrix, SymmetricMatrix.from_text)
    report = classify(a)
    if report.witness is None:
        raise ValueError(
            f"form is {report.verdict.value}: det(A - L) is sign-definite, "
            "no sign-change witness exists")
    w = report.witness
    if w.lambda_zero is None:
        if w.anisotropic_at is None:
            print("error: no rational skew matrix with det(A - L) = 0 found within the "
                  "search budget, and none was proved not to exist", file=sys.stderr)
            return 1
        print("error: no rational skew matrix with det(A - L) = 0 exists: the form is "
              f"anisotropic at p = {w.anisotropic_at}", file=sys.stderr)
        return 4
    print(report.to_text(), end="")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    a = _read(args.matrix, SymmetricMatrix.from_text)
    print(certify_positive(a, max_dim=args.max_dim).to_text(), end="")
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    a = _read(args.matrix, SymmetricMatrix.from_text)
    report = sign_probe(a, trials=args.trials, seed=args.seed, bound=args.bound)
    print("command: probe")
    print(f"seed: {args.seed}")
    print(f"trials: {args.trials}")
    print(f"bound: {args.bound}")
    print(f"positives: {report.positives}")
    print(f"negatives: {report.negatives}")
    print(f"zeros: {report.zeros}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewchar",
        description=(
            "Exact analysis of det(A - L): expansion, evaluation, definiteness "
            "classification, sign witnesses, and positivity certificates."),
        epilog=(
            "exit codes: 0 success; 1 witness found no rational zero within its "
            "search budget; 2 input error; 3 dimension cap exceeded; 4 witness "
            "proved that no rational zero exists (the form is anisotropic at a "
            "prime p)."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand det(A - L) symbolically")
    p.add_argument("matrix", help="symmetric matrix file")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                   help="dimension cap for symbolic expansion, at least 1 "
                        f"(default {DEFAULT_MAX_DIM})")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("eval", help="evaluate det(A - L) at a concrete skew matrix")
    p.add_argument("matrix", help="symmetric matrix file")
    p.add_argument("skew", help="skew matrix file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("classify", help="classify the quadratic form")
    p.add_argument("matrix", help="symmetric matrix file")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("witness", help="sign-change witnesses for a non-definite form")
    p.add_argument("matrix", help="symmetric matrix file")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("certify", help="sum-of-squares certificate for a positive form")
    p.add_argument("matrix", help="symmetric matrix file")
    p.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                   help="dimension cap for certificate construction, at least 1 "
                        f"(default {DEFAULT_MAX_DIM})")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("probe", help="tally exact signs over random skew matrices")
    p.add_argument("matrix", help="symmetric matrix file")
    p.add_argument("--trials", type=int, default=1000, metavar="N",
                   help="number of random skew matrices L (default 1000); each "
                        "trial costs one exact n x n determinant")
    p.add_argument("--seed", type=int, default=0, metavar="K",
                   help="the trials draw L in turn from one random stream "
                        "seeded with K (default 0; K must be at least 0)")
    p.add_argument("--bound", type=int, default=10, metavar="B",
                   help="each entry of L is p/q with |p| <= B and 1 <= q <= B "
                        "(default 10)")
    p.set_defaults(func=_cmd_probe)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExpansionTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
