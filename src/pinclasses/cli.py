"""Command-line surface: batch conversion, verification, and rendering.

Exit codes: 0 success, 1 stdout closed early by its reader, 2 parse error,
3 precondition violated, 4 numeric failure, 5 verification mismatch.  Every
numeric result is printed with both its exact rational interval and a
decimal rendering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from decimal import Decimal

from . import classify, oracle, pipeline
from .errors import (
    CrossCheckMismatch,
    EmptyInput,
    MalformedSyntax,
    NoRootInRange,
    ParameterOutOfRange,
    PinclassesError,
)
from .pimap import PinDiagram, pi_map
from .pinword import PinWord, is_recurrent, parse_pin_spec, parse_pin_word
from .series import MAX_PARSE_DEGREE, Poly, coeffs


def _parse_tol(text: str) -> Decimal:
    """A finite Decimal, left inexact: its exact fraction, if tiny, is slow."""
    try:
        if Decimal(text).is_finite():
            return Decimal(text)
    except ArithmeticError:
        pass
    raise MalformedSyntax(f"tolerance must be a decimal number, got {text!r}")


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_perm(args) -> int:
    words = args.word or [line.strip() for line in sys.stdin if line.strip()]
    if not words:
        raise EmptyInput("perm needs pin words, as arguments or on stdin")
    results = [(w, pi_map(w)) for w in words]
    if args.format == "json":
        out = [{"word": w, "perm": p.one_line()} for w, p in results]
        print(json.dumps(out[0] if len(out) == 1 else out, indent=2))
    elif len(results) == 1:
        print(results[0][1].one_line())
    else:
        for w, p in results:
            print(f"{w}\t{p.one_line()}")
    return 0


def cmd_gf(args) -> int:
    d = pipeline.describe(args.spec, mode=args.mode, digits=args.digits)
    show = d["display"]
    lines = [
        f"spec: {d['spec']}   mode: {d['mode']}",
        f"f  = {show['f']}",
        f"G  = {show['G']}",
        f"g  = {show['g']}",
    ]
    lines += [f"g{i} = {q}" for i, q in enumerate(show["g_quadrants"], 1)]
    growth = d["growth"]
    lines.append(
        f"growth = {growth['decimal']}  in  [{growth['interval'][0]}, {growth['interval'][1]}]"
    )
    _emit(args, d, lines)
    return 0


def cmd_growth(args) -> int:
    tol = _parse_tol(args.tol)
    if args.poly is not None:
        if args.spec is not None:
            raise MalformedSyntax("growth takes a spec or --poly, not both")
        if args.mode is not None:
            raise MalformedSyntax("--mode applies to a spec, not to --poly")
        target = Poly.parse(args.poly)
        context = {"polynomial": args.poly}
    elif args.spec is not None:
        mode = args.mode or "closure"
        # looked up on the module at call time, so rebinding it takes effect
        target = getattr(pipeline, f"{mode}_gf")(args.spec)
        context = {"spec": args.spec, "mode": mode, "f": target.to_json()}
    else:
        raise MalformedSyntax("growth needs a spec or --poly")
    result = pipeline.growth_rate(target, tol=tol, digits=args.digits)
    payload = dict(context, growth=result.to_json())
    lo, hi = result.growth_interval
    _emit(
        args,
        payload,
        [
            f"growth = {result.growth_rate}",
            f"exact interval: [{lo}, {hi}]",
            f"smallest root of {result.polynomial} in ({result.root_interval[0]}, {result.root_interval[1]}]",
        ],
    )
    return 0


def cmd_verify_tables(args) -> int:
    reports = classify.verify_tables(args.n_max)
    payload = {"reports": [r.to_json() for r in reports]}
    lines = []
    bad = []
    for r in reports:
        lines.append(
            f"n={r.length:2d}  decomposable={len(r.decomposable_words):3d}  "
            f"collision_groups={len(r.collision_groups):3d}  "
            f"match={'yes' if r.table_match else 'NO'}"
        )
        if not r.table_match:
            bad.extend(r.discrepancies)
    _emit(args, payload, lines)
    if bad:
        for msg in bad:
            print(f"mismatch: {msg}", file=sys.stderr)
        return 5
    return 0


def _open_output(path: str):
    """Open an output file for writing, mapping a failure to exit code 3.
    Callers open it before the work, so a bad path costs nothing."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ParameterOutOfRange(f"cannot write {path}: {exc.strerror or exc}") from None


def cmd_oracle(args) -> int:
    if args.method != "representation" and not args.spec:
        raise MalformedSyntax("this oracle method needs a spec")
    if args.method == "representation" and args.spec:
        raise MalformedSyntax("the representation oracle takes no spec")
    if args.n < 1:  # a depth-0 census has only the empty permutation to compare
        raise ParameterOutOfRange(f"oracle depth --n must be at least 1, got {args.n}")
    spec = None
    if args.spec:  # the cap gf and growth apply, before any census or recurrence test
        spec = parse_pin_spec(args.spec)
        pipeline._check_spec_size(spec)
    with _open_output(args.dump_perms) if args.dump_perms else nullcontext() as dump:
        _run_oracle(args, spec, dump)
    return 0


def _run_oracle(args, spec, dump) -> None:
    if args.method == "representation":
        census = oracle.enumerate_pin_permutations(args.n)
        reference = pipeline.complete_class_gf()
        ref_label = "complete-class generating function"
    elif args.method == "composition":
        census = oracle.enumerate_class_composition(spec, args.n)
        reference = pipeline.class_gf(args.spec)
        ref_label = "class generating function"
    else:
        census = oracle.enumerate_class_subset(spec, args.n)
        reference = pipeline.class_gf(args.spec) if is_recurrent(args.spec) else None
        ref_label = "class generating function (recurrent spec)"
    payload = census.to_json()
    lines = [census.description, f"counts: {census.counts}"]
    if reference is not None:
        expect = [int(c) for c in coeffs(reference, args.n)]
        payload["reference"] = expect
        payload["match"] = expect == census.counts
        lines.append(f"{ref_label}: {expect}")
        if not payload["match"]:
            _emit(args, payload, lines)
            raise CrossCheckMismatch(
                f"census counts {census.counts} differ from GF coefficients {expect}"
            )
        lines.append("match: yes")
    if dump is not None:
        for n in range(census.n_max + 1):
            for p in census.members(n):
                dump.write(p.one_line() + "\n")
        lines.append(f"permutations written to {args.dump_perms}")
    _emit(args, payload, lines)


def cmd_complete(args) -> int:
    try:
        quadrants = frozenset(int(q) for q in args.quadrants.replace(",", " ").split())
    except ValueError:
        raise MalformedSyntax(f"quadrants must be integers 1-4, got {args.quadrants!r}")
    f = pipeline.complete_class_gf(quadrants)
    result = pipeline.growth_rate(f, digits=args.digits)
    payload = {
        "quadrants": sorted(quadrants),
        "f": f.to_json(),
        "growth": result.to_json(),
    }
    lo, hi = result.growth_interval
    _emit(
        args,
        payload,
        [
            f"quadrants: {sorted(quadrants)}",
            f"f = {f}",
            f"growth = {result.growth_rate}  in  [{lo}, {hi}]",
        ],
    )
    return 0


def cmd_closure_of(args) -> int:
    f = pipeline.finite_closure_gf(args.perms)
    payload = {"generators": list(args.perms), "f": f.to_json()}
    lines = [f"generators: {', '.join(args.perms)}", f"f = {f}"]
    try:
        result = pipeline.growth_rate(f, digits=args.digits)
    except NoRootInRange:
        payload["growth"] = None
        lines.append("growth: below 2 (no denominator root in (0, 1/2])")
    else:
        payload["growth"] = result.to_json()
        lo, hi = result.growth_interval
        lines.append(f"growth = {result.growth_rate}  in  [{lo}, {hi}]")
    _emit(args, payload, lines)
    return 0


# The ASCII grid of n points has (n + 1)^2 cells, about 8 MB of text at
# 2000 points; `render` refuses more before placing any point.
RENDER_MAX_POINTS = 2000


def cmd_render(args) -> int:
    if args.steps is not None and args.steps < 1:
        raise ParameterOutOfRange(f"--steps must be at least 1, got {args.steps}")
    text = args.word.strip()
    if "(" in text:
        spec = parse_pin_spec(text)
        points = args.steps or spec.prefix_length + 2 * spec.cycle_length
    else:
        word = parse_pin_word(text)
        points = min(args.steps or word.length, word.length)
    if points > RENDER_MAX_POINTS:
        raise ParameterOutOfRange(
            f"render draws at most {RENDER_MAX_POINTS} points, asked for {points}"
        )
    if "(" in text:
        word = spec.initial_word(points)
    elif points < word.length:
        word = PinWord(word.numeral, word.letters[: points - 1])
    diagram = PinDiagram(word)
    fmt = args.format or ("svg" if args.out else "ascii")
    rendered = diagram.to_svg() if fmt == "svg" else diagram.to_ascii()
    if args.out:
        with _open_output(args.out) as fh:
            fh.write(rendered)
        print(f"wrote {args.out}")
    else:
        print(rendered)
    return 0


def _add_format(sub, default: str = "text") -> None:
    sub.add_argument(
        "--format", choices=("json", "text"), default=default, help="output format"
    )


def _add_digits(sub) -> None:
    sub.add_argument(
        "--digits", type=int, default=10, help="significant digits in decimals"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pinclasses",
        description="Pin sequences, centred permutations, and exact class enumeration.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("perm", help="apply the point-placement map to pin words")
    p.add_argument("word", nargs="*", help="pin words (stdin if omitted)")
    _add_format(p)
    p.set_defaults(func=cmd_perm)

    p = subs.add_parser("gf", help="generating functions of a pin spec")
    p.add_argument("spec")
    p.add_argument("--mode", choices=("class", "closure", "interior"), default="class")
    _add_format(p)
    _add_digits(p)
    p.set_defaults(func=cmd_gf)

    p = subs.add_parser("growth", help="certified growth rate")
    p.add_argument("spec", nargs="?")
    p.add_argument(
        "--poly", help=f'polynomial of degree at most {MAX_PARSE_DEGREE}, e.g. "1-2z-z^3"'
    )
    # for a spec only, where it defaults to closure
    p.add_argument("--mode", choices=("class", "closure", "interior"))
    p.add_argument("--tol", default="1e-12", help="root isolation tolerance")
    _add_format(p)
    _add_digits(p)
    p.set_defaults(func=cmd_growth)

    p = subs.add_parser("verify-tables", help="re-derive the classification tables")
    p.add_argument("--n-max", type=int, default=12)
    # the walk runs in one process; 1 stays accepted for existing command lines
    p.add_argument("--jobs", type=int, choices=(1,), help=argparse.SUPPRESS)
    _add_format(p)
    p.set_defaults(func=cmd_verify_tables)

    p = subs.add_parser("oracle", help="brute-force census cross-checked against GFs")
    p.add_argument("spec", nargs="?")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--method", choices=("subset", "composition", "representation"), required=True
    )
    p.add_argument("--dump-perms", metavar="PATH")
    _add_format(p)
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("complete", help="complete class, optionally quadrant-confined")
    p.add_argument("--quadrants", default="1,2,3,4")
    _add_format(p)
    _add_digits(p)
    p.set_defaults(func=cmd_complete)

    p = subs.add_parser("closure-of", help="⊞-closure of explicit centred permutations")
    p.add_argument("--perms", nargs="+", required=True, metavar="PERM")
    _add_format(p)
    _add_digits(p)
    p.set_defaults(func=cmd_closure_of)

    p = subs.add_parser(
        "render",
        help="draw a pin diagram",
        description=f"Draw the diagram of a pin word or spec: at most {RENDER_MAX_POINTS} points.",
    )
    p.add_argument("word", help="pin word or spec")
    p.add_argument(
        "--steps", type=int, help=f"points to realize for a spec (at most {RENDER_MAX_POINTS})"
    )
    p.add_argument(
        "--format",
        choices=("svg", "ascii"),
        default=None,
        help="default: svg when --out is given, ascii otherwise",
    )
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_render)

    return parser


# built on the first `main` call, not at import, and kept for the process
_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        code = args.func(args) or 0
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
        return code
    except PinclassesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # stdout's reader closed it early (``| head``): point stdout at
        # devnull, so the exit flush of what is still buffered stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
