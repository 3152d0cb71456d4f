"""Command-line front door.

Every subcommand reads sets as canonical JSON documents (a file path or an
inline JSON string), prints human-readable text by default, and supports
machine formats where they make sense (json everywhere, csv for scan).
Exit codes: 0 success, 1 domain error (diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import warnings
from dataclasses import asdict

from .blockset import BlockSet
from .experiments import scan_ratio, scan_to_csv, verify_equality
from .render import check_digits, fraction_decimal, fraction_str
from .repcount import CLASSIC_VARIANTS, count_classic, count_weighted, count_weighted_oracle
from .structure import decompose, detect_tail, generate_from_seed, multiplicative_profile, select_g
from .witness import WitnessValidationError, enumerate_witnesses

# Work caps: n for the O(n) oracle behind `eval --check`, and the number of
# window points of `verify-psi` and `scan`.  The window cap bounds points, not
# time: a point costs O(B) or O(B log B) in the number B of blocks below n.
CHECK_MAX_N = 10**7
WINDOW_MAX_POINTS = 10**4


def _load_set(source: str) -> BlockSet:
    text = source
    if not source.lstrip().startswith("{"):
        shown = source if len(source) <= 200 else f"{source[:200]}..."
        try:
            with open(source) as f:
                text = f.read()
        except (FileNotFoundError, NotADirectoryError):  # f.json/x names no file either
            raise ValueError(f"set file not found: {shown}") from None
        except OSError as exc:
            raise ValueError(f"cannot read set file {shown}: {exc.strerror or exc}") from exc
    try:
        doc = json.loads(text, parse_int=lambda p: _parse_int(p, "set document"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"set document is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ValueError("set document is nested too deeply") from None
    return BlockSet.from_doc(doc)


def _parse_int_list(text: str) -> list[int]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty integer list")
    return [_parse_int(p, "integer list") for p in parts]


def _parse_int(text: str, where: str, error: type[Exception] = ValueError) -> int:
    """int(text); text that int() rejects for the digit limit alone raises error naming it."""
    try:
        return int(text)
    except ValueError:
        try:  # with each digit run cut to one digit, only an integer parses
            int(re.sub(r"\d+", "0", text))
        except ValueError:
            # int()'s own message, which its digit limit can pre-empt on long text
            raise ValueError(f"invalid literal for int() with base 10: {text!r:.200}") from None
    limit = sys.get_int_max_str_digits()
    digits = sum(ch.isdigit() for ch in text)
    raise error(f"{where} has a {digits}-digit integer; integers are limited to {limit} digits")


def _int_arg(text: str) -> int:
    """The argparse type of every integer option: past the digit limit is a usage error."""
    return _parse_int(text, "value", argparse.ArgumentTypeError)


_int_arg.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"


def _check_window(points: int) -> None:
    if points > WINDOW_MAX_POINTS:
        raise ValueError(f"the window is capped at {WINDOW_MAX_POINTS} points")


def _emit(args, doc: dict, **texts: str) -> int:
    """Print one rendering of a result: doc as JSON, or the text for --format.

    A format without a text prints one "key: value" line per field of doc.
    """
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    elif args.format in texts:
        sys.stdout.write(texts[args.format])
    else:
        for key, val in doc.items():
            print(f"{key}: {val}")
    return 0


def _weights(args, parser) -> tuple[int, int]:
    if args.k is not None:
        if args.w1 is not None or args.w2 is not None:
            parser.error("give either --k or --w1/--w2, not both")
        return (1, args.k)
    if args.w1 is None or args.w2 is None:
        parser.error("weights required: --k K or --w1 W1 --w2 W2")
    return (args.w1, args.w2)


def _cmd_eval(args, parser) -> int:
    s = _load_set(args.set)
    w = _weights(args, parser)
    count = count_weighted(s, args.n, w)
    doc = {"n": str(args.n), "w1": w[0], "w2": w[1], "count": str(count)}
    if args.check:
        if args.n > CHECK_MAX_N:
            raise ValueError(f"--check is capped at n <= {CHECK_MAX_N} (the oracle is O(n))")
        ref = count_weighted_oracle(s, args.n, w)
        doc["oracle"] = str(ref)
        if ref != count:
            raise ValueError(f"closed form {count} != oracle {ref}")
    return _emit(args, doc, human=f"{count}\n")


def _cmd_classic(args, parser) -> int:
    count = count_classic(_load_set(args.set), args.n, args.variant)
    doc = {"n": str(args.n), "variant": args.variant, "count": str(count)}
    return _emit(args, doc, human=f"{count}\n")


def _cmd_detect(args, parser) -> int:
    if (args.boundaries is None) == (args.set is None):
        parser.error("give exactly one of --boundaries or --set")
    if args.boundaries is not None:
        bs = _parse_int_list(args.boundaries)
    else:
        bs = list(_load_set(args.set).boundaries)
    tail = detect_tail(bs, args.k)
    if tail is None:
        return _emit(args, {"tail": None}, human="none\n")
    return _emit(args, {"tail": asdict(tail)}, human=f"a={tail.a} k={tail.k} i0={tail.i0}\n")


def _cmd_gen(args, parser) -> int:
    seed = _parse_int_list(args.seed)
    return _emit(args, generate_from_seed(seed, args.a, args.k, args.limit).to_doc())


def _cmd_select_g(args, parser) -> int:
    sel = select_g(_load_set(args.set))
    check_digits(sel.T, "threshold T")
    return _emit(args, {"T": str(sel.T), "g": sel.g}, human=f"T={sel.T} g={sel.g}\n")


def _cmd_decompose(args, parser) -> int:
    return _emit(args, decompose(_load_set(args.set), args.n, args.g).to_doc())


def _cmd_witnesses(args, parser) -> int:
    report = enumerate_witnesses(_load_set(args.set), args.n, args.g)
    return _emit(args, report.to_doc())


def _cmd_verify_psi(args, parser) -> int:
    s = _load_set(args.set)
    _check_window(args.n_hi - args.n_lo + 1)
    report = verify_equality(s, args.k, args.n_lo, args.n_hi, record_per_n=args.per_n)
    first = "none" if report.first_violation is None else report.first_violation
    lines = [
        f"equal: {report.equal_count}/{max(report.n_hi - report.n_lo + 1, 0)}",
        f"first_violation: {first}",
        *(f"n={n} r_set={ra} r_comp={rc}" for n, ra, rc in report.per_n or ()),
    ]
    return _emit(args, report.to_doc(), human="".join(f"{line}\n" for line in lines))


def _cmd_scan(args, parser) -> int:
    s = _load_set(args.set)
    if args.stride >= 1:  # scan_ratio rejects any other stride
        _check_window((args.n_hi - args.n_lo) // args.stride + 1)
    scan = scan_ratio(s, args.k, args.n_lo, args.n_hi, args.g, args.stride)
    floor_ = scan.theoretical_floor
    lines = [
        *(
            f"n={p.n} r_set={p.r_set} r_comp={p.r_comp} "
            f"ratio={fraction_str(p.ratio)} ({fraction_decimal(p.ratio, 9)})"
            for p in scan.points
        ),
        f"min_ratio: {'n/a' if scan.min_ratio is None else fraction_str(scan.min_ratio)}",
        f"theoretical_floor: {fraction_str(floor_)} ({fraction_decimal(floor_, 9)})",
        f"trivial_ceiling: {fraction_str(scan.trivial_ceiling)}",
    ]
    csv_text = io.StringIO()
    scan_to_csv(scan, csv_text)
    return _emit(
        args,
        scan.to_doc(),
        human="".join(f"{line}\n" for line in lines),
        csv=csv_text.getvalue(),
    )


def _cmd_intersect(args, parser) -> int:
    prof = multiplicative_profile(args.k, args.l)
    doc = {"nonempty": prof.odd_odd, **asdict(prof)}
    if not prof.dependent:
        human = "empty (multiplicatively independent)\n"
    else:
        word = "nonempty" if prof.odd_odd else "empty"
        human = f"{word} (d={prof.d}, p={prof.p}, q={prof.q})\n"
    return _emit(args, doc, human=human)


def _add_format(p: argparse.ArgumentParser, *extra: str) -> None:
    p.add_argument("--format", choices=("human", "json", *extra), default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repfn",
        description="Exact representation counting over self-similar block sets.",
        epilog=f"Work caps: eval --check takes n <= {CHECK_MAX_N}; verify-psi and scan "
        f"evaluate at most {WINDOW_MAX_POINTS} window points. That caps points, not time: "
        "a point costs O(B) for verify-psi and O(B log B) for scan or a --per-n row, B "
        "the number of blocks below n, so a full window near n = 1e4000 runs 30 min or more.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func, parser=p)  # usage errors name the subcommand
        return p

    p = add("eval", _cmd_eval, "count weighted representations (closed form)")
    p.add_argument("--set", required=True, help="set JSON: file path or inline document")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, help="shorthand for weights (1, k)")
    p.add_argument("--w1", type=_int_arg)
    p.add_argument("--w2", type=_int_arg)
    p.add_argument(
        "--check", action="store_true", help=f"cross-check against the oracle (n <= {CHECK_MAX_N})"
    )
    _add_format(p)

    p = add("classic", _cmd_classic, "unweighted pair counts R1/R2/R3")
    p.add_argument("--set", required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--variant", choices=CLASSIC_VARIANTS, required=True)
    _add_format(p)

    p = add("detect", _cmd_detect, "detect a scaling law in a boundary list")
    p.add_argument("--boundaries", help="comma-separated boundary values")
    p.add_argument("--set", help="take boundaries from a set document")
    p.add_argument("--k", type=_int_arg, required=True)
    _add_format(p)

    p = add("gen", _cmd_gen, "expand a seed into a set document")
    p.add_argument("--seed", required=True, help="comma-separated seed t_0..t_(a-1)")
    p.add_argument("--a", type=_int_arg, required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--limit", type=_int_arg, required=True)
    p.set_defaults(format="json")

    p = add("select-g", _cmd_select_g, "threshold T and least odd g with k^g > T")
    p.add_argument("--set", required=True)
    _add_format(p)

    p = add("decompose", _cmd_decompose, "locate n on the boundary lattice")
    p.add_argument("--set", required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--g", type=_int_arg, required=True)
    _add_format(p)

    p = add("witnesses", _cmd_witnesses, "build and validate the witness family for n")
    p.add_argument("--set", required=True)
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--g", type=_int_arg, required=True)
    _add_format(p)

    p = add("verify-psi", _cmd_verify_psi, "check set-vs-complement count equality on a window")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--n-lo", type=_int_arg, required=True)
    p.add_argument("--n-hi", type=_int_arg, required=True)
    p.add_argument("--per-n", action="store_true", help="include the per-n series")
    _add_format(p)

    p = add("scan", _cmd_scan, "ratio series r/n on the containing side")
    p.add_argument("--set", required=True)
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--n-lo", type=_int_arg, required=True)
    p.add_argument("--n-hi", type=_int_arg, required=True)
    p.add_argument("--g", type=_int_arg, required=True)
    p.add_argument("--stride", type=_int_arg, default=1)
    _add_format(p, "csv")

    p = add("intersect", _cmd_intersect, "odd/odd multiplicative dependence of two ratios")
    p.add_argument("--k", type=_int_arg, required=True)
    p.add_argument("--l", type=_int_arg, required=True)
    _add_format(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args, args.parser)
        except (ValueError, WitnessValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
