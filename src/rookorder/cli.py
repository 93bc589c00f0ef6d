"""Command-line front end.

Subcommands: orbit, rpoly, mobius, descents, order, hasse, table,
verify.  Exit codes: 0 success/verified, 1 verification violation,
2 usage error.  All output is deterministic: running a command twice
gives byte-identical results.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analysis, order, renner, rpoly, verify, weyl

MAX_N = 8

DESCENT_TABLE_ELEMENTS = ("0012", "0013", "1002", "3002", "0420")
LENGTH2_TABLE_INTERVALS = (("0001", "0003"), ("0012", "0023"))


class UsageError(ValueError):
    pass


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _check_n_k(n: int, k: int | None) -> None:
    if not 1 <= n <= MAX_N:
        raise UsageError(f"--n must be in 1..{MAX_N}")
    if k is not None and not 0 <= k <= n:
        raise UsageError("--k must satisfy 0 <= k <= n")


def _descents_str(indices) -> str:
    return ",".join(f"s{i}" for i in sorted(indices)) if indices else "-"


def _json_dumps(data) -> str:
    return json.dumps(data, indent=2, sort_keys=False) + "\n"


def _orbit_rows(n: int, k: int) -> list[dict]:
    rows = []
    for sigma in renner.orbit(n, k):
        x, e, y = renner.standard_form(sigma)
        left, right = analysis.descent_sets(sigma)
        rows.append({
            "sigma": renner.format_element(sigma),
            "length": renner.length(sigma),
            "x": renner.format_element(x),
            "e": renner.format_element(e),
            "y_inv": renner.format_element(weyl.inverse(y)),
            "des_L": sorted(left),
            "des_R": sorted(right),
        })
    return rows


def _rows_to_tsv(header: list[str], rows: list[list[str]]) -> str:
    lines = ["\t".join(header)]
    lines += ["\t".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def cmd_orbit(args) -> int:
    _check_n_k(args.n, args.k)
    if args.k is None:
        raise UsageError("orbit requires --k")
    rows = _orbit_rows(args.n, args.k)
    if args.format == "json":
        text = _json_dumps(rows)
    else:
        header = ["sigma", "len", "x", "e", "y_inv", "des_L", "des_R"]
        body = [[r["sigma"], str(r["length"]), r["x"], r["e"], r["y_inv"],
                 _descents_str(r["des_L"]), _descents_str(r["des_R"])]
                for r in rows]
        if args.format == "tsv":
            text = _rows_to_tsv(header, body)
        else:
            widths = [max(len(h), *(len(row[i]) for row in body))
                      for i, h in enumerate(header)]
            lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
            lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths))
                      for row in body]
            text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _rpoly_record(theta, sigma) -> dict:
    poly = rpoly.rpoly(theta, sigma)
    if theta != sigma and not order.leq(theta, sigma):
        shape = "incomparable"
        mu = 0
    else:
        classification = analysis.classify_interval(theta, sigma)
        shape = classification.shape
        mu = classification.mobius
    return {
        "theta": renner.format_element(theta),
        "sigma": renner.format_element(sigma),
        "rpoly": poly,
        "constant_term": poly.constant_term,
        "mobius": mu,
        "shape": shape,
    }


def cmd_rpoly(args) -> int:
    theta, sigma = _parse_pair(args.theta, args.sigma)
    record = _rpoly_record(theta, sigma)
    if args.format == "json":
        record["rpoly"] = record["rpoly"].to_json()
        text = _json_dumps(record)
    else:
        text = (f"R = {record['rpoly']}\n"
                f"R(0) = {record['constant_term']}\n"
                f"mu = {record['mobius']}\n"
                f"shape = {record['shape']}\n")
    _emit(text, args.out)
    return 0


def cmd_mobius(args) -> int:
    theta, sigma = _parse_pair(args.theta, args.sigma)
    mu = order.mobius_direct(theta, sigma)
    r0 = rpoly.rpoly(theta, sigma).constant_term
    if args.format == "json":
        text = _json_dumps({"mobius": mu, "r_constant_term": r0})
    else:
        text = f"mu = {mu}\nR(0) = {r0}\n"
    _emit(text, args.out)
    return 0


def cmd_descents(args) -> int:
    sigma = _parse_element(args.sigma)
    left, right = analysis.descent_sets(sigma)
    if args.format == "json":
        text = _json_dumps({
            "element": renner.element_to_json(sigma),
            "des_L": sorted(left),
            "des_R": sorted(right),
        })
    else:
        text = (f"des_L = {_descents_str(left)}\n"
                f"des_R = {_descents_str(right)}\n")
    _emit(text, args.out)
    return 0


def cmd_order(args) -> int:
    theta, sigma = _parse_pair(args.theta, args.sigma)
    lower = order.leq(theta, sigma)
    upper = order.leq(sigma, theta)
    t, s = renner.format_element(theta), renner.format_element(sigma)
    if args.format == "json":
        text = _json_dumps({"theta": t, "sigma": s,
                            "theta_leq_sigma": lower,
                            "sigma_leq_theta": upper})
    else:
        text = (f"{t} <= {s}: {str(lower).lower()}\n"
                f"{s} <= {t}: {str(upper).lower()}\n")
    _emit(text, args.out)
    return 0


def cmd_hasse(args) -> int:
    if args.theta is not None and args.sigma is not None:
        theta, sigma = _parse_pair(args.theta, args.sigma)
        poset = order.interval(theta, sigma)
    elif args.theta is None and args.sigma is None:
        _check_n_k(args.n, args.k)
        if args.k is None:
            raise UsageError("hasse requires either two elements or --k")
        nu = renner.orbit_minimum(args.n, args.k)
        top = renner.orbit_maximum(args.n, args.k)
        poset = order.interval(nu, top)
    else:
        raise UsageError("hasse takes zero or two element arguments")
    _emit(order.hasse_dot(poset), args.out)
    return 0


def descent_table() -> str:
    header = ["sigma", "x", "e", "y_inv", "des_L", "des_R"]
    body = []
    for text in DESCENT_TABLE_ELEMENTS:
        sigma = renner.parse_element(text)
        x, e, y = renner.standard_form(sigma)
        left, right = analysis.descent_sets(sigma)
        body.append([text, renner.format_element(x), renner.format_element(e),
                     renner.format_element(weyl.inverse(y)),
                     _descents_str(left), _descents_str(right)])
    return _rows_to_tsv(header, body)


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


def cmd_table(args) -> int:
    if args.name == "descents":
        text = descent_table()
    elif args.name == "length2":
        text = length2_table()
    else:
        raise UsageError(f"unknown table {args.name!r}")
    _emit(text, args.out)
    return 0


def cmd_verify(args) -> int:
    if not 1 <= args.n <= 4:
        raise UsageError("verification suites run at n in 1..4")
    reports = verify.run_suite(args.suite, args.n)
    passed = all(r.passed for r in reports)
    payload = {
        "suite": args.suite,
        "n": args.n,
        "passed": passed,
        "reports": [
            {"name": r.name, "checked": r.checked, "violations": r.violations}
            for r in reports
        ],
    }
    _emit(_json_dumps(payload), args.out)
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rookorder",
        description="Bruhat-Chevalley order, R-polynomials and Mobius "
                    "functions on rook monoid orbits.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=4, help="rank (1..8)")
    common.add_argument("--k", type=int, default=None, help="orbit rank")
    common.add_argument("--out", default=None, metavar="FILE")

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, formats, summary):
        """A subcommand whose --format takes the formats it writes, the
        first one by default."""
        p = sub.add_parser(name, parents=[common], help=summary)
        p.add_argument("--format", choices=formats, default=formats[0])
        return p

    p = add("orbit", ("text", "json", "tsv"),
            "list an orbit with lengths, standard forms, descents")
    p.set_defaults(func=cmd_orbit)

    p = add("rpoly", ("text", "json"), "R-polynomial of a same-orbit pair")
    p.add_argument("theta")
    p.add_argument("sigma")
    p.set_defaults(func=cmd_rpoly)

    p = add("mobius", ("text", "json"), "Mobius function of a same-orbit pair")
    p.add_argument("theta")
    p.add_argument("sigma")
    p.set_defaults(func=cmd_mobius)

    p = add("descents", ("text", "json"), "descent sets of one element")
    p.add_argument("sigma")
    p.set_defaults(func=cmd_descents)

    p = add("order", ("text", "json"),
            "compare two elements in Bruhat-Chevalley order")
    p.add_argument("theta")
    p.add_argument("sigma")
    p.set_defaults(func=cmd_order)

    p = add("hasse", ("dot",),
            "DOT Hasse diagram of an interval or a whole orbit")
    p.add_argument("theta", nargs="?", default=None)
    p.add_argument("sigma", nargs="?", default=None)
    p.set_defaults(func=cmd_hasse)

    p = add("table", ("tsv",), "reference tables (descents, length2)")
    p.add_argument("name", choices=("descents", "length2"))
    p.set_defaults(func=cmd_table)

    p = add("verify", ("json",),
            "run a verification suite, exit 1 on violations")
    p.add_argument("suite", choices=verify.SUITES)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a UsageError, or input the library rejected
        print(f"rookorder: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
