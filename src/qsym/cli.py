"""Command line interface.

Subcommands: spectrum, fourier-check, intertwiner, partition (eval|check),
verify.  JSON goes to stdout; diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 invalid input or exceeded size guard, 3 internal
error (an unexpected exception, reported in one line).  Size guards
honor QSYM_MAX_N, QSYM_MAX_DENSE and QSYM_MAX_SPARSE; a value that is not a
non-negative integer is invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import prod

from .cayley import (
    CayleyGraph,
    SpectralDecomposition,
    family_graph,
    make_generating_set,
)
from .config import guard_n
from .dsl import eval_text, load_fixture_file
from .errors import InvalidInputError, QsymError
from .functors import evaluate_partlin
from .groups import as_int, make_group
from .intertwiners import EigenprojectionBasis, hat_block_intertwiner
from .lemmas import check_identities
from .report import VerificationReport
from .verify import run_suite, suite_fourier_check

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_INTERNAL_ERROR = 3


def _graph_from_args(args):
    if args.family:
        return family_graph(args.family)
    if args.orders is None or args.gens is None:
        raise InvalidInputError("need either --family or both --orders and --gens")
    guard_n(prod(args.orders), "group of --orders")
    g = make_group(args.orders)
    gens = [[as_int(x, "--gens coordinate") for x in chunk.split(",")]
            for chunk in args.gens.split(";") if chunk.strip()]
    return CayleyGraph(g, make_generating_set(g, gens))


def cmd_spectrum(args) -> int:
    gr = _graph_from_args(args)
    spec = SpectralDecomposition(gr)
    if args.json:
        json.dump(spec.to_json(), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        name = " x ".join(f"Z_{m}" for m in gr.group.orders)
        print(f"group {name}, {gr.group.order} vertices, "
              f"{len(gr.gens)} generators")
        for lam, labels in spec.items:
            print(f"  {lam.str():>12}  multiplicity {len(labels)}")
    return EXIT_OK


def cmd_fourier_check(args) -> int:
    rep = suite_fourier_check(args.family)
    _emit_report(rep, args.json)
    return rep.exit_code()


def _parse_block(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise InvalidInputError(f"--block needs 'k,l', got {text!r}")
    return [as_int(x, "--block leg count") for x in parts]


def _parse_selection(text, n_spaces):
    indices = []
    for piece in text.split("+"):
        piece = piece.strip().upper()
        if not piece.startswith("V"):
            raise InvalidInputError(f"eigenspace selector must look like V1, got {piece!r}")
        indices.append(as_int(piece[1:], "eigenspace index"))
    if any(i < 0 or i >= n_spaces for i in indices):
        raise InvalidInputError(
            f"eigenspace index out of range 0..{n_spaces - 1} in {text!r}"
        )
    return indices


def cmd_intertwiner(args) -> int:
    gr = _graph_from_args(args)
    k, l = _parse_block(args.block)
    basis = None  # all characters
    if args.project:
        spec = SpectralDecomposition(gr)
        indices = _parse_selection(args.project, len(spec.items))
        basis = EigenprojectionBasis.from_spectrum(spec, indices)
    out = hat_block_intertwiner(gr.group, k, l, basis, basis)
    json.dump(out.to_json(), sys.stdout, sort_keys=True)
    sys.stdout.write("\n")
    return EXIT_OK


def _text(value) -> str:
    """str(value); an integer with more digits than Python converts to text
    (4,300 by default) is invalid input, not an internal error."""
    try:
        return str(value)
    except ValueError as exc:
        raise InvalidInputError(f"result too long to print: {exc}") from None


def cmd_partition(args) -> int:
    if args.action == "eval":
        result = eval_text(args.expr)
        print(_text(result))
        if args.at is not None:
            t = evaluate_partlin(result, args.at, deformed=args.deformed)
            stats = {
                "size": args.at,
                "shape": list(t.shape),
                "out_axes": t.out_axes,
                "nonzeros": t.nnz(),
            }
            if t.out_shape == t.in_shape and not t.is_zero():
                tr = t.trace()
                stats["trace"] = _text(tr.as_fraction() if tr.is_rational() else tr)
            print(json.dumps(stats, sort_keys=True))
        return EXIT_OK
    # action == check: the checker of `qsym verify lemmas`
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read {args.file}: {exc}") from None
    checks = load_fixture_file(text)
    rep = check_identities(VerificationReport(args.file), checks)
    _emit_report(rep, False)
    return rep.exit_code()


def cmd_verify(args) -> int:
    rep = run_suite(args.suite)
    _emit_report(rep, args.json)
    return rep.exit_code()


def _emit_report(rep, as_json):
    if as_json:
        json.dump(rep.to_json(), sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(rep.render())


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qsym",
        description="Exact spectral and diagrammatic calculus for Cayley "
        "graphs of finite abelian groups.",
        epilog="Size guards: QSYM_MAX_N (default 4096) caps group order, "
        "QSYM_MAX_DENSE (default 10^6) caps dense enumerations, "
        "QSYM_MAX_SPARSE (default 10^7) caps stored tensor nonzeros.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        p.add_argument("--family", help="family string, e.g. hypercube:3, "
                       "halved:4, folded:4, hamming:2,3, complete:5, "
                       "circulant:8,(1;3)")
        p.add_argument("--orders", type=int, nargs="+",
                       help="cyclic factor orders, e.g. --orders 2 2 2")
        p.add_argument("--gens", help="generators, ';'-separated coordinate "
                       "tuples, e.g. '1,0,0;0,1,0;0,0,1'")

    p = sub.add_parser("spectrum", help="exact eigenvalues with multiplicities")
    add_graph_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("fourier-check",
                       help="conjugate the adjacency matrix and compare with "
                       "the character-sum spectrum")
    p.add_argument("--family", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fourier_check)

    p = sub.add_parser("intertwiner",
                       help="Fourier-transformed one-block intertwiner, "
                       "optionally projected to eigenspaces")
    add_graph_args(p)
    p.add_argument("--block", required=True, help="'k,l' leg counts")
    p.add_argument("--project", help="eigenspace selection such as V1 or V1+V4")
    p.set_defaults(func=cmd_intertwiner)

    p = sub.add_parser("partition", help="evaluate or check diagram expressions")
    psub = p.add_subparsers(dest="action", required=True)
    pe = psub.add_parser("eval", help="evaluate an expression")
    pe.add_argument("expr")
    pe.add_argument("--at", type=int, help="also evaluate through the tensor "
                    "functor at this size and print stats")
    pe.add_argument("--deformed", action="store_true",
                    help="use the signed functor for --at")
    pe.set_defaults(func=cmd_partition)
    pc = psub.add_parser("check", help="run a fixture file of identities")
    pc.add_argument("file")
    pc.set_defaults(func=cmd_partition)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="all | lemmas | hypercube:n | halved:n | "
                   "folded:n | hamming:n,m | complete:m | wreath:n,m | "
                   "eqthat | functoriality | eigenspace | antisym")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except QsymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # a bug, not a verdict: keep it apart from exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
