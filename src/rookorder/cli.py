"""Command-line front end.

Subcommands: orbit, rpoly, mobius, descents, order, hasse, table,
verify.  Each command is a function from its parsed arguments to an
``Output``: the text it prints and the exit code it ends with.  Only
``main`` writes, to stdout or to ``--out``, and a command that fails
writes nothing.  Exit codes: 0 success/verified, 1 verification
violation, 2 usage error: a refusal of argparse (which prints its
usage), or one ``rookorder: error:`` line for a bad argument, input
the library rejects or an ``--out`` that cannot be written.  All
output is deterministic: running a command twice gives byte-identical
results.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import NamedTuple

from . import analysis, order, renner, rpoly, verify, weyl

MAX_N = 8
DEFAULT_N = 4  # of --n, where a command takes it
VERIFY_MAX_N = 6  # every suite at this n runs in about 25 s and 620 MB

DESCENT_TABLE_ELEMENTS = ("0012", "0013", "1002", "3002", "0420")
LENGTH2_TABLE_INTERVALS = (("0001", "0003"), ("0012", "0023"))


class UsageError(ValueError):
    pass


class Output(NamedTuple):
    """What a command prints, and the exit code it ends with."""
    text: str
    code: int = 0


def _parse_element(text: str) -> renner.Word:
    word = renner.parse_element(text)
    if not 1 <= len(word) <= MAX_N:
        raise UsageError(f"rank {len(word)} outside desk scale 1..{MAX_N}")
    return word


def _parse_pair(a: str, b: str) -> tuple[renner.Word, renner.Word]:
    theta = _parse_element(a)
    sigma = _parse_element(b)
    if len(theta) != len(sigma):
        raise UsageError("elements must have the same rank n")
    return theta, sigma


def _orbit_n_k(args, missing_k: str) -> tuple[int, int]:
    """The orbit (n, k) that ``--n`` and ``--k`` name."""
    n = DEFAULT_N if args.n is None else args.n
    if not 1 <= n <= MAX_N:
        raise UsageError(f"--n must be in 1..{MAX_N}")
    if args.k is None:
        raise UsageError(missing_k)
    if not 0 <= args.k <= n:
        raise UsageError("--k must satisfy 0 <= k <= n")
    return n, args.k


def _descents_str(indices) -> str:
    return ",".join(f"s{i}" for i in sorted(indices)) if indices else "-"


def _json_dumps(data) -> str:
    import json  # only here, so that start-up does not pay for it
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def _record(args, record: dict, text: str) -> Output:
    """A record command's output: ``record`` as JSON, or ``text``."""
    return Output(_json_dumps(record) if args.format == "json" else text)


def _element_row(sigma: renner.Word) -> dict:
    x, e, y = renner.standard_form(sigma)
    left, right = renner.descents(sigma, "left"), renner.descents(sigma, "right")
    return {
        "sigma": renner.format_element(sigma),
        "length": renner.length(sigma),
        "x": renner.format_element(x),
        "e": renner.format_element(e),
        "y_inv": renner.format_element(weyl.inverse(y)),
        "des_L": sorted(left),
        "des_R": sorted(right),
    }


def _rows_to_tsv(header: list[str], rows: list[list[str]]) -> str:
    lines = ["\t".join(header)]
    lines += ["\t".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_orbit(args) -> Output:
    n, k = _orbit_n_k(args, "orbit requires --k")
    rows = [_element_row(sigma) for sigma in renner.orbit(n, k)]
    if args.format == "json":
        return Output(_json_dumps(rows))
    header = ["sigma", "len", "x", "e", "y_inv", "des_L", "des_R"]
    body = [[r["sigma"], str(r["length"]), r["x"], r["e"], r["y_inv"],
             _descents_str(r["des_L"]), _descents_str(r["des_R"])]
            for r in rows]
    if args.format == "tsv":
        return Output(_rows_to_tsv(header, body))
    widths = [max(len(h), *(len(row[i]) for row in body))
              for i, h in enumerate(header)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
              for row in body]
    return Output("\n".join(lines) + "\n")


def cmd_rpoly(args) -> Output:
    theta, sigma = _parse_pair(args.theta, args.sigma)
    poly = rpoly.rpoly(theta, sigma)
    shape, mu = "incomparable", 0
    if order.leq(theta, sigma):
        info = analysis.classify_interval(theta, sigma)
        shape, mu = info.shape, info.mobius
    return _record(args, {
        "theta": renner.format_element(theta),
        "sigma": renner.format_element(sigma),
        "rpoly": poly.to_json(),
        "constant_term": poly.constant_term,
        "mobius": mu,
        "shape": shape,
    }, (f"R = {poly}\n"
        f"R(0) = {poly.constant_term}\n"
        f"mu = {mu}\n"
        f"shape = {shape}\n"))


def cmd_mobius(args) -> Output:
    theta, sigma = _parse_pair(args.theta, args.sigma)
    mu = order.mobius_direct(theta, sigma)
    r0 = rpoly.rpoly(theta, sigma).constant_term
    return _record(args, {"mobius": mu, "r_constant_term": r0},
                   f"mu = {mu}\nR(0) = {r0}\n")


def cmd_descents(args) -> Output:
    sigma = _parse_element(args.sigma)
    left, right = renner.descents(sigma, "left"), renner.descents(sigma, "right")
    return _record(args, {
        "element": renner.element_to_json(sigma),
        "des_L": sorted(left),
        "des_R": sorted(right),
    }, (f"des_L = {_descents_str(left)}\n"
        f"des_R = {_descents_str(right)}\n"))


def cmd_order(args) -> Output:
    theta, sigma = _parse_pair(args.theta, args.sigma)
    lower = order.leq(theta, sigma)
    upper = order.leq(sigma, theta)
    t, s = renner.format_element(theta), renner.format_element(sigma)
    return _record(args, {"theta": t, "sigma": s,
                          "theta_leq_sigma": lower,
                          "sigma_leq_theta": upper},
                   f"{t} <= {s}: {str(lower).lower()}\n"
                   f"{s} <= {t}: {str(upper).lower()}\n")


def cmd_hasse(args) -> Output:
    if (args.theta is None) != (args.sigma is None):
        raise UsageError("hasse takes zero or two element arguments")
    if args.theta is None:
        n, k = _orbit_n_k(args, "hasse requires either two elements or --k")
        theta, sigma = renner.orbit_minimum(n, k), renner.orbit_maximum(n, k)
    elif args.n is not None or args.k is not None:
        raise UsageError("hasse takes two elements or --n and --k, not both")
    else:
        theta, sigma = _parse_pair(args.theta, args.sigma)
    return Output(order.hasse_dot(order.interval(theta, sigma)))


def descent_table() -> str:
    header = ["sigma", "x", "e", "y_inv", "des_L", "des_R"]
    rows = [_element_row(renner.parse_element(text)) for text in DESCENT_TABLE_ELEMENTS]
    return _rows_to_tsv(header, [
        [r["sigma"], r["x"], r["e"], r["y_inv"],
         _descents_str(r["des_L"]), _descents_str(r["des_R"])] for r in rows])


def length2_table() -> str:
    header = ["shape", "elements", "theta", "sigma", "rpoly", "constant_term"]
    body = []
    for low, high in LENGTH2_TABLE_INTERVALS:
        theta = renner.parse_element(low)
        sigma = renner.parse_element(high)
        info = analysis.classify_interval(theta, sigma)
        body.append([info.shape, str(len(info.interval.elements)), low, high,
                     str(rpoly.rpoly(theta, sigma)), str(info.r_constant_term)])
    return _rows_to_tsv(header, body)


TABLES = {"descents": descent_table, "length2": length2_table}


def cmd_table(args) -> Output:
    return Output(TABLES[args.name]())


def cmd_verify(args) -> Output:
    n = DEFAULT_N if args.n is None else args.n
    if not 1 <= n <= VERIFY_MAX_N:
        raise UsageError(f"verification suites run at n in 1..{VERIFY_MAX_N}")
    reports = verify.run_suite(args.suite, n)
    passed = all(r.passed for r in reports)
    payload = {
        "suite": args.suite,
        "n": n,
        "passed": passed,
        "reports": [
            {"name": r.name, "checked": r.checked, "violations": r.violations}
            for r in reports
        ],
    }
    return Output(_json_dumps(payload), 0 if passed else 1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookorder",
        description="Bruhat-Chevalley order, R-polynomials and Mobius "
                    "functions on rook monoid orbits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, formats, summary, flags=(), elements=()):
        """A subcommand that runs ``func``, with one positional argument
        per name in ``elements``.  Its --format takes the formats it
        writes, the first one by default.  Of --n and --k it takes the
        ``flags`` it reads, so argparse refuses the others with exit
        code 2."""
        p = sub.add_parser(name, help=summary)
        if "--n" in flags:
            p.add_argument("--n", type=int, default=None,
                           help=f"rank (1..{MAX_N}, default {DEFAULT_N})")
        if "--k" in flags:
            p.add_argument("--k", type=int, default=None, help="orbit rank")
        p.add_argument("--out", default=None, metavar="FILE")
        p.add_argument("--format", choices=formats, default=formats[0])
        for element in elements:
            p.add_argument(element)
        p.set_defaults(func=func)
        return p

    add("orbit", cmd_orbit, ("text", "json", "tsv"),
        "list an orbit with lengths, standard forms, descents", ("--n", "--k"))
    add("rpoly", cmd_rpoly, ("text", "json"), "R-polynomial of a same-orbit pair",
        elements=("theta", "sigma"))
    add("mobius", cmd_mobius, ("text", "json"), "Mobius function of a same-orbit pair",
        elements=("theta", "sigma"))
    add("descents", cmd_descents, ("text", "json"), "descent sets of one element",
        elements=("sigma",))
    add("order", cmd_order, ("text", "json"),
        "compare two elements in Bruhat-Chevalley order", elements=("theta", "sigma"))

    p = add("hasse", cmd_hasse, ("dot",),
            "DOT Hasse diagram of an interval or a whole orbit", ("--n", "--k"))
    p.add_argument("theta", nargs="?", default=None)
    p.add_argument("sigma", nargs="?", default=None)

    p = add("table", cmd_table, ("tsv",), "reference tables (descents, length2)")
    p.add_argument("name", choices=TABLES)

    p = add("verify", cmd_verify, ("json",),
            "run a verification suite, exit 1 on violations", ("--n",))
    p.add_argument("suite", choices=verify.SUITES)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, code = args.func(args)
        with (open(args.out, "w", encoding="utf-8") if args.out
              else contextlib.nullcontext(sys.stdout)) as sink:
            sink.write(text)
    except (ValueError, OSError) as exc:
        # a UsageError, input the library rejected, or output that
        # cannot be written, such as an --out naming a directory
        print(f"rookorder: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
