"""One benchmark worker process: a batch of warm ``certify`` calls, a traced
copy of one cold operation, or a sweep over every layer.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the package sources; prints
one JSON object on stdout.  Spans go around calls into isopair's public
functions only, so the package's internals can change freely.
"""

import time

T0 = time.monotonic()  # first statement: ends the cli.interpreter span

import argparse
import bisect
import json
import math
import sys
from contextlib import nullcontext
from fractions import Fraction

from tracing import Tracer

BATCH_BUDGET = 40
VERIFY_BUDGET = 36
BLOCK_S = 0.2
THETA_BUDGET = 24  # the budget the verify anchors pin for kernel, relation and route checks


def cert_summary(cert) -> dict:
    """The fields of a certificate the oracle checks, without its polynomials."""
    return {
        "params": [str(x) for x in cert.params],
        "sorted_params": [str(x) for x in cert.sorted_params],
        "permutation": list(cert.permutation),
        "min_exponent": None if cert.min_exponent is None else str(cert.min_exponent),
        "total": None if cert.total is None else str(cert.total),
        "terms": [{"value": str(t.value)} for t in cert.terms],
        "verdict": cert.verdict.value,
    }


def series_terms(series) -> list:
    return [
        [list(e), [[list(m), str(c)] for m, c in series.coefficient(e).as_pairs()]]
        for e in sorted(series)
    ]


def run_batch(seed: int, seconds: float, traced: bool) -> dict:
    """Set up (import, build the family, fill the budget-40 cache with a
    first certify), then certify fresh points until ``seconds`` pass.

    Calls go in blocks of about ``BLOCK_S`` between two calibrations; each
    call's ``scale`` comes from the calibrations around its block.  Results
    are checked here, so memory holds no certificates.
    """
    import oracle
    import points
    from calibrate import calibrate, scale

    tr = Tracer()
    span = tr.span if traced else (lambda name: nullcontext())
    stream = points.stream(seed)
    start = time.perf_counter()
    with span("cli.import"):
        import isopair.cli  # noqa: F401  the import a CLI process pays
    from isopair import ParamPoint, build_family, certify

    with span("lattices.build_family"):
        build_family()
    with span("setup.first_certify"):
        certify(ParamPoint(*next(stream)), BATCH_BUDGET)
    setup_s = time.perf_counter() - start
    if seconds <= 0:
        return {"setup_s": setup_s}

    walls, scales, traced_ops, failures = [], [], [], []
    loop_start = time.perf_counter()
    before = calibrate()
    while time.perf_counter() - loop_start < seconds:
        block_start, first = time.perf_counter(), len(walls)
        while time.perf_counter() - block_start < BLOCK_S:
            point = next(stream)
            # traced runs alternate untraced and traced calls, for the tracing overhead
            on = traced and len(walls) % 2 == 1
            tr.op = len(walls)
            t = time.perf_counter()
            with span("discrepancy.certify_warm") if on else nullcontext():
                cert = certify(ParamPoint(*point), BATCH_BUDGET)
            walls.append(time.perf_counter() - t)
            traced_ops.append(on)
            reason = oracle.check_certificate(cert_summary(cert), point)
            if reason:
                failures.append(reason)
        after = calibrate()
        scales += [scale(before, after)] * (len(walls) - first)
        before = after
    return {"setup_s": setup_s, "walls": walls, "scales": scales, "traced": traced_ops,
            "failures": failures, "spans": tr.spans}


def run_cli(tr: Tracer, argv: list[str]):
    """``isopair.cli.main(argv)`` inside a ``cli.main`` span; returns its
    parsed JSON output, or None when it exits non-zero."""
    import io
    from contextlib import redirect_stdout

    from isopair.cli import main

    buf = io.StringIO()
    with tr.span("cli.main"), redirect_stdout(buf):
        code = main(argv)
    return json.loads(buf.getvalue()) if code == 0 else None


def run_op(argv: list[str]) -> dict:
    """A traced copy of one cold ``certify`` or ``delta`` process.  The layers
    the command reaches first are called first, each in its span, so the
    caches they fill serve the command's own calls in ``cli.main`` after."""
    tr = Tracer()
    with tr.span("cli.import"):
        import isopair.cli  # noqa: F401
    from isopair import Route, build_family, delta_series

    budget = int(argv[argv.index("--budget") + 1]) if "--budget" in argv else BATCH_BUDGET
    with tr.span("lattices.build_family"):
        fam = build_family()
    with tr.span("discrepancy.delta"):
        with tr.span("lattices.scan"):
            fam.L1.vectors(budget)
        # delta_series is cached per argument tuple: call it as certify and
        # the CLI do, so the command finds the cache filled here
        delta_series(budget, Route.FROM_PSI_KERNEL)
    return {"spans": tr.spans, "output": run_cli(tr, argv)}


def run_verify() -> dict:
    """A traced copy of one cold ``isopair verify --budget 36`` process."""
    tr = Tracer()
    with tr.span("cli.import"):
        import isopair.cli  # noqa: F401
    from isopair import run_verification

    with tr.span("verification.run"):
        results = run_verification(VERIFY_BUDGET)
    output = [{"anchor": r.anchor, "status": "pass" if r.ok else "fail"} for r in results]
    return {"spans": tr.spans, "output": output}


def pair_counts(shell, budget: int) -> dict:
    norms = sorted(sum(x * x for x in v) for v in shell)
    in_budget = sum(bisect.bisect_right(norms, budget - n) for n in norms)
    visited = len(shell) ** 2
    return {
        "shell_size": len(shell),
        "shell_vs_predicted": len(shell) / (math.pi**2 * budget**2 / 288),
        "pairs_visited": visited,
        "pairs_in_budget": in_budget,
        "pairs_useful_ratio": in_budget / visited,
    }


def run_sweep(budget: int, params: list[str]) -> dict:
    """Every layer once, each in the cache state the workloads meet it in:
    the budget-B chain first (as certify and delta run it), then the codes,
    theta and budget-24 checks in the order ``verify`` runs them."""
    tr = Tracer()
    with tr.span("cli.import"):
        import isopair.cli  # noqa: F401
    from isopair import (
        Kernel,
        ParamPoint,
        Route,
        build_family,
        certify,
        check_relations,
        coset_label,
        delta_series,
        intersection_graph,
        minimal_pair_table,
        minimal_rows,
        psi,
        rep_series,
        selfdual_codes,
        theta11,
        two_dim_subspaces,
    )

    point = ParamPoint(*(Fraction(x) for x in params))
    with tr.span("lattices.build_family"):
        fam = build_family()
    with tr.span("discrepancy.delta"):
        with tr.span("lattices.scan"):
            shell = fam.L1.vectors(budget)
        series = delta_series(budget, Route.FROM_PSI_KERNEL)
    with tr.span("lattices.label"):
        for v in shell:
            coset_label(v)
    with tr.span("lattices.psi"):
        for v in shell:
            psi(v)
    with tr.span("discrepancy.min_table"):
        minimal_rows(minimal_pair_table(budget))
    with tr.span("discrepancy.certify_warm"):
        cert = certify(point, budget)
    with tr.span("qarith.collapse"):
        collapsed = series.collapse(point)
    with tr.span("codes.subspaces"):
        subspaces = two_dim_subspaces()
    with tr.span("codes.selfdual"):
        codes = selfdual_codes()
    with tr.span("codes.graph"):
        edges = intersection_graph(codes)
    with tr.span("theta.rep_series"):
        rep_series(fam.L2, budget)
    with tr.span("lattices.scan24"):
        fam.L1.vectors(THETA_BUDGET)
    with tr.span("theta.theta11_defining"):
        theta11(fam.L1, THETA_BUDGET, Kernel.DEFINING)
    with tr.span("theta.theta11_pairwise"):
        theta11(fam.L1, THETA_BUDGET, Kernel.PAIRWISE)
    with tr.span("discrepancy.relations"):
        relations = check_relations(THETA_BUDGET)
    with tr.span("discrepancy.route_theta"):
        theta_route = delta_series(THETA_BUDGET, Route.FROM_THETA)
    cli_cert = run_cli(tr, ["certify", "--params", *params, "--budget", str(budget), "--format", "json"])

    counts = pair_counts(shell, budget)
    counts["series_terms"] = len(series)
    counts["collapsed_terms"] = len(collapsed)
    output = {
        "certificate": cert_summary(cert),
        "cli_certificate": cli_cert,
        "collapsed": [[str(x), str(c)] for x, c in collapsed],
        "codes": [len(subspaces), len(codes), len(edges)],
        "relations_ok": relations.ok,
        "route_theta": series_terms(theta_route),
    }
    return {"spans": tr.spans, "counts": counts, "output": output}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "batch", "op", "verify", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cli", type=json.loads, help="isopair command line, as a JSON list")
    parser.add_argument("--budget", type=int)
    parser.add_argument("--params", nargs=4)
    args = parser.parse_args()
    if args.mode == "setup":
        result = run_batch(args.seed, 0, False)
    elif args.mode == "batch":
        result = run_batch(args.seed, args.seconds, bool(args.trace))
    elif args.mode == "op":
        result = run_op(args.cli)
    elif args.mode == "verify":
        result = run_verify()
    else:
        result = run_sweep(args.budget, args.params)
    result["t0"] = T0
    json.dump(result, sys.stdout, separators=(",", ":"))


if __name__ == "__main__":
    main()
