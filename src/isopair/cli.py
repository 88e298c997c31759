"""Command-line front end.

Subcommands: ``codes {list,graph}``, ``pair show``, ``spectrum``,
``isospectral``, ``invariant``, ``delta``, ``certify``, ``verify``.
Parameters are exact rationals written as integers or ``p/q``; floats are
rejected.  Output formats: text (default), json, csv.  Exit status: 0 for
success or a verified/non-isometric result, 2 for an inconclusive
certificate, 1 for any error, including an internal consistency failure.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
from fractions import Fraction

from .discrepancy import Route, Verdict, certify, delta_series
from .lattices import LatticeFamily, build_family
from .qarith import ParamPoint
from .theta import Kernel, rep_series, theta11

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


class CliError(Exception):
    pass


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise CliError(f"not an exact rational: {text!r} (use an integer or p/q)")
    return Fraction(text)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # inconclusive certificates here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser, params=False, budget=True):
    if params:
        parser.add_argument(
            "--params",
            nargs=4,
            metavar=("A", "B", "C", "D"),
            required=True,
            help="parameter point as four exact rationals",
        )
    if budget:
        parser.add_argument("--budget", type=int, default=40, help="truncation budget (default 40)")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")


def _point(args) -> ParamPoint:
    return ParamPoint(*(parse_rational(x) for x in args.params))


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _render(args, payload, header, rows, lines) -> None:
    """Emit the form of the output that ``--format`` asks for: the json
    payload, the csv header and rows, or the text lines."""
    if args.format == "json":
        text = _json_text(payload)
    elif args.format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_series(args, label: str, collapsed, extra) -> None:
    payload = {
        "command": label,
        "params": list(args.params),
        "budget": args.budget,
        "series": [[str(x), str(c)] for x, c in collapsed],
    } | extra
    lines = [f"{label} at ({', '.join(args.params)}), budget {args.budget}"]
    lines += [f"{k}: {v}" for k, v in extra.items()]
    lines += [f"  q^{x}: {c}" for x, c in collapsed]
    rows = [(str(x), str(c)) for x, c in collapsed]
    _render(args, payload, ("exponent", "coefficient"), rows, lines)


def cmd_codes(args) -> int:
    from . import codes as codes_mod

    eight = codes_mod.selfdual_codes()
    names = [f"C{i + 1}" for i in range(8)]
    if args.codes_action == "list":
        payload = {
            "codes": [
                {
                    "name": names[i],
                    "generators": [list(g) for g in code.generators],
                    "words": sorted(list(w) for w in code.words),
                }
                for i, code in enumerate(eight)
            ]
        }
        rows = [
            (names[i], " ".join(map(str, code.generators[0])), " ".join(map(str, code.generators[1])))
            for i, code in enumerate(eight)
        ]
        lines = [
            f"{names[i]}: span{{{code.generators[0]}, {code.generators[1]}}}"
            for i, code in enumerate(eight)
        ]
        _render(args, payload, ("code", "generator1", "generator2"), rows, lines)
        return 0

    parts = codes_mod.orbit_partition(eight)
    edges = codes_mod.intersection_graph(eight)
    edge_list = sorted(tuple(sorted(names[i] for i in e)) for e in edges)
    bipartite = edges == codes_mod.complete_bipartite(parts)
    payload = {
        "edges": len(edges),
        "bipartite": bipartite,
        "parts": [sorted(names[i] for i in p) for p in parts],
        "edge_list": [list(e) for e in edge_list],
    }
    lines = [
        f"orbits: {{{', '.join(sorted(names[i] for i in parts[0]))}}} / "
        f"{{{', '.join(sorted(names[i] for i in parts[1]))}}}",
        f"edges ({len(edges)}, bipartite={str(bipartite).lower()}):",
    ] + [f"  {a} -- {b}" for a, b in edge_list]
    _render(args, payload, ("code_a", "code_b"), edge_list, lines)
    return 0


def cmd_pair(args) -> int:
    fam = build_family()
    indices = {
        "[L:L1]": fam.L1.index_in(fam.L),
        "[L:L2]": fam.L2.index_in(fam.L),
        "[L1:L12]": fam.L12.index_in(fam.L1),
        "[L1:M]": fam.M.index_in(fam.L1),
    }
    payload = [
        {
            "lattice": lat.name,
            "generators": [list(g) for g in lat.generators],
            "hnf": [list(r) for r in lat.hnf],
        }
        for lat in fam
    ]
    rows = [
        (lat.name, ";".join(" ".join(map(str, g)) for g in lat.generators),
         ";".join(" ".join(map(str, r)) for r in lat.hnf))
        for lat in fam
    ]
    lines = []
    for lat in fam:
        lines.append(f"{lat.name}: generators {lat.generators}")
        lines.append(f"{' ' * len(lat.name)}  normal form {lat.hnf}")
    lines += [f"{k} = {v}" for k, v in indices.items()]
    _render(args, {"lattices": payload, "indices": indices}, ("lattice", "generators", "hnf"), rows, lines)
    return 0


def cmd_spectrum(args) -> int:
    point = _point(args)
    collapsed = rep_series(getattr(build_family(), args.lattice), args.budget).collapse(point)
    _render_series(args, "spectrum", collapsed, {"lattice": args.lattice})
    return 0


def cmd_isospectral(args) -> int:
    point = _point(args)
    fam = build_family()
    s1 = rep_series(fam.L1, args.budget).collapse(point)
    s2 = rep_series(fam.L2, args.budget).collapse(point)
    equal = s1 == s2
    payload = {
        "params": list(args.params),
        "budget": args.budget,
        "equal": equal,
        "spectrum": [[str(x), str(c)] for x, c in s1],
    }
    rows = [(str(x), str(c), str(dict(s2).get(x, 0))) for x, c in s1]
    verdict = "identical" if equal else "DIFFERENT"
    lines = [f"spectra of L1 and L2 at budget {args.budget}: {verdict}"]
    lines += [f"  q^{x}: {c}" for x, c in s1]
    _render(args, payload, ("exponent", "count_L1", "count_L2"), rows, lines)
    return 0 if equal else 1


def cmd_invariant(args) -> int:
    point = _point(args)
    series = theta11(getattr(build_family(), args.lattice), args.budget, Kernel(args.kernel))
    collapsed = series.collapse(point)
    _render_series(args, "invariant", collapsed, {"lattice": args.lattice, "kernel": args.kernel})
    return 0


def cmd_delta(args) -> int:
    point = _point(args)
    series = delta_series(args.budget, Route(args.route))
    collapsed = series.collapse(point)
    _render_series(args, "delta", collapsed, {"route": args.route})
    return 0


def cmd_certify(args) -> int:
    point = _point(args)
    cert = certify(point, args.budget, Route(args.route))
    rows = [
        (" ".join(map(str, t.exponent_vector)), str(t.polynomial), str(t.value))
        for t in cert.terms
    ]
    rows.append(("total", "", "" if cert.total is None else str(cert.total)))
    rows.append(("verdict", "", cert.verdict.value))
    lines = [
        f"params: ({', '.join(str(x) for x in cert.params)})",
        f"sorted: ({', '.join(str(x) for x in cert.sorted_params)})",
        f"budget: {cert.budget}",
    ]
    if cert.verdict is Verdict.NON_ISOMETRIC:
        lines.append(f"minimal exponent of the discrepancy: {cert.min_exponent}")
        for t in cert.terms:
            lines.append(f"  q-exponent {t.exponent_vector}: {t.polynomial} = {t.value}")
        lines.append(f"total leading coefficient: {cert.total}")
    lines.append(f"verdict: {cert.verdict.value}")
    _render(args, cert.to_json_dict(), ("exponent_vector", "polynomial", "value"), rows, lines)
    return 0 if cert.verdict is Verdict.NON_ISOMETRIC else 2


def cmd_verify(args) -> int:
    from .verification import run_verification

    results = run_verification(args.budget)
    payload = [
        {"anchor": r.anchor, "status": "pass" if r.ok else "fail"}
        | ({"witness": r.witness} if r.witness else {})
        for r in results
    ]
    rows = [(r.anchor, "pass" if r.ok else "fail", r.witness or "") for r in results]
    width = max(len(r.anchor) for r in results)
    lines = [
        f"{'ok  ' if r.ok else 'FAIL'} {r.anchor.ljust(width)}  {r.witness or ''}".rstrip()
        for r in results
    ]
    _render(args, payload, ("anchor", "status", "witness"), rows, lines)
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isopair", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    codes_p = sub.add_parser("codes", help="the eight self-dual ternary codes")
    codes_sub = codes_p.add_subparsers(dest="codes_action", required=True)
    for action in ("list", "graph"):
        p = codes_sub.add_parser(action)
        _add_common(p, budget=False)
        p.set_defaults(func=cmd_codes)

    pair_p = sub.add_parser("pair", help="the lattice family")
    pair_sub = pair_p.add_subparsers(dest="pair_action", required=True)
    show = pair_sub.add_parser("show")
    _add_common(show, budget=False)
    show.set_defaults(func=cmd_pair)

    spectrum = sub.add_parser("spectrum", help="collapsed representation numbers")
    _add_common(spectrum, params=True)
    spectrum.add_argument("--lattice", choices=LatticeFamily._fields, default="L1")
    spectrum.set_defaults(func=cmd_spectrum)

    iso = sub.add_parser("isospectral", help="compare the spectra of the pair")
    _add_common(iso, params=True)
    iso.set_defaults(func=cmd_isospectral)

    inv = sub.add_parser("invariant", help="the collapsed degree-2 invariant")
    _add_common(inv, params=True)
    inv.add_argument("--lattice", choices=("L1", "L2"), default="L1")
    inv.add_argument("--kernel", choices=tuple(k.value for k in Kernel), default=Kernel.PAIRWISE.value)
    inv.set_defaults(func=cmd_invariant)

    delta = sub.add_parser("delta", help="the collapsed discrepancy series")
    _add_common(delta, params=True)
    delta.add_argument("--route", choices=tuple(r.value for r in Route), default=Route.FROM_PSI_KERNEL.value)
    delta.set_defaults(func=cmd_delta)

    cert = sub.add_parser("certify", help="non-isometry certificate at a parameter point")
    _add_common(cert, params=True)
    cert.add_argument("--route", choices=tuple(r.value for r in Route), default=Route.FROM_PSI_KERNEL.value)
    cert.set_defaults(func=cmd_certify)

    ver = sub.add_parser("verify", help="run every verification anchor")
    _add_common(ver)
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except (CliError, ValueError, OSError) as exc:
        message = str(exc)
    except AssertionError as exc:
        # a cross-check inside the library disagreed: report, do not crash
        message = f"internal consistency failure: {exc}"
    if getattr(args, "format", "text") == "json":
        sys.stdout.write(_json_text({"error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
