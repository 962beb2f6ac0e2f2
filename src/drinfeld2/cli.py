"""Command-line interface.

Exit codes: 0 success, 1 domain-negative result (not realizable),
2 validation error, 3 resource bound exceeded.
"""

import argparse
import os
import sys

from .census import (attach_class_number_checks, canonical_json, cyclicity_trend,
                     default_prime, run_census)
from .charpoly import is_imaginary
from .drinfeld import DrinfeldModule
from .fields import SizeBoundError, _layout, _number, build_tower
from .polys import UPoly
from .structure import CRITERIA, NotRealizable, classify_module, criteria, realize_structure

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_VALIDATION = 2
EXIT_BOUND = 3


def _positive_int(text):
    """An argparse type: bare ASCII digits, at least 1; argparse names the flag."""
    try:
        if (value := _number(text)) >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected an integer >= 1, got %r" % text)


def _add_field_args(sub):
    sub.add_argument("--p", type=_positive_int, required=True, help="prime characteristic")
    sub.add_argument("--s", type=_positive_int, default=1, help="base degree, q = p^s")


def _add_module_args(sub):
    _add_field_args(sub)
    sub.add_argument("--P", required=True, help="monic irreducible in T, e.g. 'T^2+1'")
    sub.add_argument("--m", type=_positive_int, required=True, help="degree of L over A/P")
    sub.add_argument("--n", type=_positive_int, default=None,
                     help="optional consistency check: must equal m*deg(P)")
    sub.add_argument("--g", required=True, help="tau coefficient, int or [c0,c1,...]")
    sub.add_argument("--delta", required=True, help="tau^2 coefficient, nonzero")


def _add_output_args(sub, formats=("json", "text")):
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--out", default=None, help="write the report to this path")


def _add_jobs_arg(sub):
    # a string default goes through the type, so a bad value exits 2
    sub.add_argument("--jobs", type=_positive_int, default=os.getenv("DRINFELD2_JOBS", "1"),
                     help="worker processes, capped at the CPU count "
                          "(default $DRINFELD2_JOBS or 1)")


def _check_out(path):
    """Reject an --out path before any work, creating nothing: an empty
    path, a directory, or a file whose directory is missing or not
    writable."""
    if not path:
        raise ValueError("cannot write '': the path is empty")
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        raise ValueError("cannot write %s: is a directory" % path)
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
        raise ValueError("cannot write %s: %s is missing or not writable" % (path, parent))


def _parse_prime(args):
    """--P over F_q; a constant is refused before a tower of its degree."""
    prime = UPoly.parse(build_tower(args.p, args.s, 1).fq, args.P)
    if prime.degree() < 1:
        raise ValueError("--P %s is not a prime: a prime is monic of degree >= 1" % prime)
    return prime


def _tower_and_prime(args, n=None):
    """Parse --P over F_q and build the tower of degree m deg P, which
    must equal n when n is given."""
    prime = _parse_prime(args)
    degree = args.m * prime.degree()
    if n is not None and n != degree:
        raise ValueError("--n %d does not match m*deg(P) = %d" % (n, degree))
    return build_tower(args.p, args.s, degree), prime


def _build_module(args):
    tower, prime = _tower_and_prime(args, args.n)
    return DrinfeldModule(tower, prime, tower.parse(args.g), tower.parse(args.delta))


def _emit(args, payload, text_lines):
    """Write a report to --out or stdout: payload as census.canonical_json
    for --format json, else the lines of the text or CSV form.  A path
    that cannot be written is a validation error."""
    if args.format == "json":
        body = canonical_json(payload)
    else:
        body = "\n".join(text_lines) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(body)
        except OSError as exc:
            raise ValueError("cannot write %s: %s"
                             % (args.out, exc.strerror or exc)) from exc
    else:
        sys.stdout.write(body)


def cmd_charpoly(args):
    mod = _build_module(args)
    cp, _, _, height, _ = classify_module(mod)
    payload = {
        "schema_version": "2",
        "c": str(cp.trace),
        "mu": cp.unit,
        "P": str(cp.prime),
        "m": cp.ext_degree,
        "disc": str(cp.disc),
        "disc_imaginary": is_imaginary(cp.disc),
        "chi": str(cp.chi),
        "ordinary": cp.ordinary,
        "supersingular": not cp.ordinary,
        "height": height,
        "q_even_caveat": mod.tower.q % 2 == 0,
    }
    text = ["c = %s" % payload["c"], "mu = %d" % payload["mu"],
            "chi = %s" % payload["chi"], "disc = %s" % payload["disc"],
            "ordinary = %s" % payload["ordinary"]]
    _emit(args, payload, text)
    return EXIT_OK


def cmd_structure(args):
    mod = _build_module(args)
    cp, i1, i2, _, _ = classify_module(mod)
    fq = mod.tower.fq
    flags = dict(zip(CRITERIA, criteria(fq.kernel, cp.chi.coeffs, cp.c_minus_2.coeffs, i1, i2)))
    payload = {
        "schema_version": "1",
        "i1": str(UPoly(fq, i1)),
        "i2": str(UPoly(fq, i2)),
        "cyclic": i2 == (1,),
        "chi": str(cp.chi),
        "ordinary": cp.ordinary,
        "criteria": flags,
    }
    text = ["i1 = %s" % payload["i1"], "i2 = %s" % payload["i2"],
            "cyclic = %s" % payload["cyclic"]] + [
        "%s = %s" % (k, v) for k, v in sorted(flags.items())]
    _emit(args, payload, text)
    return EXIT_OK


def _ratio_text(pair):
    """A reduced (numerator, denominator) pair as a/b, or a when b = 1."""
    return str(pair[0]) if pair[1] == 1 else "%d/%d" % pair


def cmd_census(args):
    tower = build_tower(args.p, args.s, args.d * args.m)
    if args.hurwitz and tower.q % 2 == 0:  # refused before the census, not after
        raise ValueError("class-number checks require odd q")
    prime = default_prime(tower.fq, args.d) if args.P is None else _parse_prime(args)
    if prime.degree() != args.d:
        raise ValueError("--P has degree %d, expected %d" % (prime.degree(), args.d))
    report = run_census(tower, prime, args.m, jobs=args.jobs,
                        verify_members=args.verify_members)
    if args.hurwitz:
        attach_class_number_checks(report, tower)
    if args.format == "csv":
        lines = report.to_csv().splitlines()
    else:
        t = report.totals
        lines = ["census q=%d d=%d m=%d (P = %s)" % (report.q, report.d,
                                                     report.m, report.prime),
                 "iso classes: %d (ordinary %d, supersingular %d)"
                 % (t["iso_classes"], t["ordinary_iso_classes"],
                    t["supersingular_iso_classes"]),
                 "isogeny classes: %d (ordinary %d)"
                 % (t["isogeny_classes"], t["ordinary_isogeny_classes"])]
        st = report.statistics
        if st["defined"]:
            lines.append("C = %s, C0 = %s" % (_ratio_text(st["C"]), _ratio_text(st["C0"])))
    _emit(args, report.to_dict(), lines)
    return EXIT_OK


def cmd_realize(args):
    tower, prime = _tower_and_prime(args)
    i1 = UPoly.parse(tower.fq, args.i1)
    i2 = UPoly.parse(tower.fq, args.i2)
    result = realize_structure(tower, prime, args.m, i1, i2)
    if isinstance(result, NotRealizable):
        payload = {"schema_version": "1", "realizable": False,
                   "reason": result.reason}
        _emit(args, payload, ["not realizable: %s" % result.reason])
        return EXIT_NEGATIVE
    payload = {
        "schema_version": "1",
        "realizable": True,
        "g": list(result.tower.vector(result.g)),
        "delta": list(result.tower.vector(result.delta)),
        "i1": str(i1), "i2": str(i2),
    }
    text = ["realizable: g = %s, delta = %s"
            % (result.tower.format(result.g), result.tower.format(result.delta))]
    _emit(args, payload, text)
    return EXIT_OK


def cmd_trend(args):
    qs = [_positive_int(x) for x in _layout(args.q).split(",")]
    table = cyclicity_trend(qs, args.d, args.m, jobs=args.jobs)

    def fmt(fr):
        return "-" if fr is None else "%s/%s" % (fr["num"], fr["den"])

    lines = ["q\tC\tC0\tC0_closed_form\tC0_closed_form_match"]
    for row in table["rows"]:
        lines.append("%d\t%s\t%s\t%s\t%s" % (row["q"], fmt(row["C"]), fmt(row["C0"]),
                                             fmt(row["C0_closed_form"]),
                                             row["C0_closed_form_match"]))
    _emit(args, table, lines)
    return EXIT_OK


def build_parser():
    ap = argparse.ArgumentParser(
        prog="drinfeld2",
        description="Rank-2 Drinfeld F_q[T]-module invariants and censuses")
    sub = ap.add_subparsers(dest="command", required=True)

    p_cp = sub.add_parser("charpoly", help="Frobenius characteristic polynomial")
    _add_module_args(p_cp)
    _add_output_args(p_cp)
    p_cp.set_defaults(func=cmd_charpoly)

    p_st = sub.add_parser("structure", help="invariant factors of the module")
    _add_module_args(p_st)
    _add_output_args(p_st)
    p_st.set_defaults(func=cmd_structure)

    p_ce = sub.add_parser("census", help="exhaustive census for (q, d, m)")
    _add_field_args(p_ce)
    p_ce.add_argument("--d", type=_positive_int, required=True, help="degree of the prime P")
    p_ce.add_argument("--m", type=_positive_int, required=True)
    p_ce.add_argument("--P", default=None,
                      help="explicit prime (default: lex-first irreducible of degree d)")
    _add_jobs_arg(p_ce)
    p_ce.add_argument("--verify-members", action="store_true",
                      help="re-verify every module, not only orbit representatives")
    p_ce.add_argument("--hurwitz", action="store_true",
                      help="attach independent class-number cross-checks (odd q)")
    _add_output_args(p_ce, formats=("json", "csv", "text"))
    p_ce.set_defaults(func=cmd_census)

    p_re = sub.add_parser("realize", help="find a module with given invariant factors")
    _add_field_args(p_re)
    p_re.add_argument("--P", required=True)
    p_re.add_argument("--m", type=_positive_int, required=True)
    p_re.add_argument("--i1", required=True)
    p_re.add_argument("--i2", required=True)
    _add_output_args(p_re)
    p_re.set_defaults(func=cmd_realize)

    p_tr = sub.add_parser("trend", help="C and C0 across several q")
    p_tr.add_argument("--q", required=True, help="comma-separated prime powers")
    p_tr.add_argument("--d", type=_positive_int, required=True)
    p_tr.add_argument("--m", type=_positive_int, required=True)
    _add_jobs_arg(p_tr)
    _add_output_args(p_tr)
    p_tr.set_defaults(func=cmd_trend)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        if args.out is not None:
            _check_out(args.out)
        return args.func(args)
    except SizeBoundError as exc:
        print("size bound exceeded: %s" % exc, file=sys.stderr)
        return EXIT_BOUND
    except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError) as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
