"""Command-line front end.

Subcommands: ``codes {list,graph}``, ``pair show``, ``spectrum``,
``isospectral``, ``invariant``, ``delta``, ``certify``, ``verify``.
Parameters are exact rationals written as integers or ``p/q``; floats are
rejected.  Output formats: text (default), json, csv.  Exit status: 0 for
success or a verified/non-isometric result, 2 for an inconclusive
certificate, 1 for any error, including an internal consistency failure.

``certify --batch FILE`` (``-`` for stdin) certifies one point per line,
four rationals as for ``--params``, with ``--format json``: it writes one
compact json certificate per line, or ``{"line": n, "error": ...}`` for a
line that is not a point (n counts from 1), and goes on.  Exit status: 1
if any line was bad, else 2 if any certificate was inconclusive, else 0.

The text above is the ``--help`` description.  A process builds only
the parser of the command its first argument names (every parser when it
names none, as with ``--help``): a cold command runs once per process, and
building all the parsers costs more than a cold ``certify``'s own work at
the default budget.  For the same reason a process ends through ``run``:
after ``main`` it runs the ``atexit`` callbacks, flushes the standard
streams and leaves by ``os._exit``, since the interpreter's teardown, which
frees every module and object, costs a cold ``certify`` more than its own
work and writes nothing.  ``run`` ends by ``sys.exit`` instead when a flush
fails, so that the interpreter reports the failure as it always has, and
when a tracer or profiler is attached, whose report is written after the
program returns.  ``main`` returns the exit status and ends nothing, so it
can be called in-process.
"""

from __future__ import annotations

import argparse
import atexit
import io
import json
import os
import re
import sys
from contextlib import ExitStack
from fractions import Fraction

from .discrepancy import Route, Verdict, certify, delta_series
from .lattices import LatticeFamily, build_family
from .qarith import ParamPoint
from .theta import Kernel, collapse_counts, rep_series, theta11

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


class CliError(Exception):
    pass


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL.fullmatch(text):
        raise CliError(f"not an exact rational: {text!r} (use an integer or p/q)")
    return Fraction(text)


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # inconclusive certificates here, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser, params=False, budget=True, batch=False):
    if params:
        # with ``batch``, exactly one of --params and --batch
        points = parser.add_mutually_exclusive_group(required=True) if batch else parser
        points.add_argument(
            "--params",
            nargs=4,
            metavar=("A", "B", "C", "D"),
            required=not batch,
            help="parameter point as four exact rationals",
        )
        if batch:
            points.add_argument(
                "--batch",
                metavar="FILE",
                help="certify each line of FILE ('-' for stdin), four rationals a line, "
                "as one json line each (needs --format json)",
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
    counts = rep_series(getattr(build_family(), args.lattice), args.budget)
    collapsed = collapse_counts(counts, point)
    _render_series(args, "spectrum", collapsed, {"lattice": args.lattice})
    return 0


def cmd_isospectral(args) -> int:
    point = _point(args)
    fam = build_family()
    s1 = collapse_counts(rep_series(fam.L1, args.budget), point)
    s2 = collapse_counts(rep_series(fam.L2, args.budget), point)
    equal = s1 == s2
    payload = {
        "params": list(args.params),
        "budget": args.budget,
        "equal": equal,
        "spectrum": [[str(x), str(c)] for x, c in s1],
    }
    counts2 = dict(s2)
    rows = [(str(x), str(c), str(counts2.get(x, 0))) for x, c in s1]
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


def _certify_batch(args) -> int:
    """``certify --batch``: read and write a line at a time, so memory
    does not grow with the input."""
    budget, route = args.budget, Route(args.route)
    # certify's own refusal of the budget, made once, before any line is read
    certify(ParamPoint(1, 2, 3, 4), budget, route)
    bad = inconclusive = False
    with ExitStack() as stack:
        lines = sys.stdin if args.batch == "-" else stack.enter_context(
            open(args.batch, encoding="utf-8"))
        out = stack.enter_context(open(args.out, "w", encoding="utf-8")) if args.out else sys.stdout
        for n, line in enumerate(lines, 1):
            fields = line.split()
            try:
                if len(fields) != 4:
                    raise CliError(f"expected four rationals, got {len(fields)} fields")
                point = ParamPoint(*map(parse_rational, fields))
            except (CliError, ValueError) as exc:
                bad = True
                payload = {"line": n, "error": str(exc)}
            else:
                cert = certify(point, budget, route)
                inconclusive = inconclusive or cert.verdict is not Verdict.NON_ISOMETRIC
                payload = cert.to_json_dict()
            out.write(json.dumps(payload, separators=(",", ":")) + "\n")
    return 1 if bad else 2 if inconclusive else 0


def cmd_certify(args) -> int:
    if args.batch is not None:
        return _certify_batch(args)
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


def _actions_parser(dest: str, actions: tuple[str, ...]):
    def fill(parser) -> None:
        sub = parser.add_subparsers(dest=dest, required=True)
        for action in actions:
            _add_common(sub.add_parser(action), budget=False)
    return fill


def _lattice_parser(parser, lattices=LatticeFamily._fields) -> None:
    _add_common(parser, params=True)
    parser.add_argument("--lattice", choices=lattices, default="L1")


def _invariant_parser(parser) -> None:
    _lattice_parser(parser, ("L1", "L2"))
    parser.add_argument("--kernel", choices=tuple(k.value for k in Kernel), default=Kernel.PAIRWISE.value)


def _route_parser(parser, batch=False) -> None:
    _add_common(parser, params=True, batch=batch)
    parser.add_argument("--route", choices=tuple(r.value for r in Route), default=Route.FROM_PSI_KERNEL.value)


def _certify_parser(parser) -> None:
    _route_parser(parser, batch=True)
    # ``main`` refuses --batch without --format json as this parser's usage error
    parser.set_defaults(usage_error=parser.error)


# each command: its help line, the function that runs it, and the function
# that adds its arguments to its parser
_COMMANDS = {
    "codes": ("the eight self-dual ternary codes", cmd_codes, _actions_parser("codes_action", ("list", "graph"))),
    "pair": ("the lattice family", cmd_pair, _actions_parser("pair_action", ("show",))),
    "spectrum": ("collapsed representation numbers", cmd_spectrum, _lattice_parser),
    "isospectral": ("compare the spectra of the pair", cmd_isospectral,
                    lambda parser: _add_common(parser, params=True)),
    "invariant": ("the collapsed degree-2 invariant", cmd_invariant, _invariant_parser),
    "delta": ("the collapsed discrepancy series", cmd_delta, _route_parser),
    "certify": ("non-isometry certificate at a parameter point", cmd_certify, _certify_parser),
    "verify": ("run every verification anchor", cmd_verify, _add_common),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone when it names
    one.  The one-command parser shows every command in its usage line, so
    that its usage errors read as the full parser's do."""
    parser = _Parser(prog="isopair", description=__doc__.rpartition("\n\n")[0])
    if command in _COMMANDS:
        names = (command,)
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        names = tuple(_COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_line, func, fill = _COMMANDS[name]
        command_parser = sub.add_parser(name, help=help_line)
        fill(command_parser)
        command_parser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "batch", None) is not None and args.format != "json":
            args.usage_error(f"argument --batch: needs --format json, not {args.format}")
    except SystemExit as exc:
        return exc.code or 0
    try:
        return args.func(args)
    except BrokenPipeError as exc:
        # stdout's reader is gone: what is left goes to the null device
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
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


def _observed() -> bool:
    """Whether a tracer or profiler is attached: by ``sys.settrace`` or
    ``sys.setprofile``, or by a ``sys.monitoring`` tool, which is how
    cProfile attaches from Python 3.12 on."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)
    # sys.monitoring has the tool ids 0 to 5
    return monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6))


def run() -> None:
    """The process entry: exit with the status of ``main`` on ``sys.argv``,
    without the interpreter's teardown unless a flush fails or a tracer or
    profiler is attached.  The ``atexit`` callbacks run first, as at any
    exit, so what they write is flushed too."""
    code = main()
    if not _observed():
        atexit._run_exitfuncs()
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:
                    stream.flush()
        except OSError:
            pass  # the interpreter reports it at exit, with status 120
        else:
            os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
