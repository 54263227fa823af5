"""Command-line interface.

Subcommands: gen, recover, tail, threshold, phase, curves. All results go to
stdout as JSON (or CSV files for the sweeps). Exit codes: 0 success,
2 validation error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .harness import (
    METHODS,
    boundary_curves,
    format_curves_csv,
    format_phase_csv,
    phase_diagram,
)
from .mlexact import estimate_event_probabilities, ml_bisection
from .model import (
    SbmParams,
    agreement,
    generate_sbm,
    parse_graph,
    parse_labeling,
    write_graph,
    write_labeling,
)
from .sdp import (
    ConvergenceError,
    SdpConfig,
    certificate_check,
    sdp_solve,
    signed_adjacency,
)
from .seeding import derive_seed
from .tails import (
    diff_binomial_tail,
    dominant_tilt,
    log_dominant_term_max,
    recovery_threshold,
    tail_exponent,
)
from .twophase import (
    CheatingOracle,
    SpectralOracle,
    SplitConfig,
    local_improvement,
    partial_recovery,
    split_graph,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3


def _emit(obj: dict) -> None:
    print(json.dumps(obj, sort_keys=True))


def _cmd_gen(args) -> int:
    params = SbmParams(args.n, args.alpha, args.beta)
    graph, labels = generate_sbm(params, args.seed)
    with open(args.graph_out, "w", encoding="utf-8") as fh:
        fh.write(write_graph(graph))
    with open(args.labels_out, "w", encoding="utf-8") as fh:
        fh.write(write_labeling(labels))
    _emit(
        {
            "n": params.n,
            "alpha": params.alpha,
            "beta": params.beta,
            "seed": args.seed,
            "edges": graph.m,
            "graph_out": args.graph_out,
            "labels_out": args.labels_out,
        }
    )
    return EXIT_OK


def _read_graph(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _cmd_recover(args) -> int:
    graph = _read_graph(args.graph)
    truth = None
    if args.labels:
        with open(args.labels, encoding="utf-8") as fh:
            truth = parse_labeling(fh.read())
        if truth.shape[0] != graph.n:
            raise ValueError("labeling length does not match the graph")

    record = {
        "method": args.method,
        "n": graph.n,
        "alpha": None,
        "beta": None,
        "seed": args.seed,
        "success": None,
        "agreement": None,
        "diagnostics": {},
    }

    def finish(labels, diagnostics) -> None:
        record["diagnostics"] = diagnostics
        if labels is not None:
            record["labeling"] = [int(x) for x in labels]
            if truth is not None:
                agr = agreement(labels, truth)
                record["agreement"] = agr
                record["success"] = agr == 1.0

    if args.method == "ml":
        res = ml_bisection(graph)
        diag = {"min_cut": res.min_cut, "optima_count": res.optima_count, "unique": res.unique}
        finish(res.best, diag)
        if truth is not None:
            record["success"] = bool(record["success"] and res.unique)
    elif args.method == "sdp":
        sol = sdp_solve(signed_adjacency(graph), SdpConfig(seed=args.seed))
        finish(sol.rounded, {"objective": sol.objective, "rounds_used": sol.rounds_used})
    elif args.method == "certificate":
        if truth is None:
            raise ValueError("the certificate method needs --labels (the planted truth)")
        rep = certificate_check(graph, truth)
        record["diagnostics"] = rep.to_dict()
        record["success"] = rep.certified
    elif args.method == "two-phase":
        cfg = SplitConfig(c=args.split_c, seed=derive_seed(args.seed, 2))
        if args.oracle == "cheating":
            if truth is None:
                raise ValueError("the cheating oracle needs --labels")
            oracle = CheatingOracle(corruption=args.delta, seed=derive_seed(args.seed, 3))
        else:
            oracle = SpectralOracle()
        g1, g2 = split_graph(graph, cfg)
        part = partial_recovery(g1, oracle, truth)
        labels = part
        for _ in range(args.rounds):
            labels = local_improvement(g2, labels)
        finish(
            labels,
            {
                "g1_edges": g1.m,
                "g2_edges": g2.m,
                "flips_applied": int(np.count_nonzero(labels != part)),
            },
        )
    else:
        raise ValueError(f"unknown method {args.method!r}")
    _emit(record)
    return EXIT_OK


def _cmd_tail(args) -> int:
    if args.exponent:
        if args.alpha is None or args.beta is None:
            raise ValueError("--exponent needs --alpha and --beta")
        eps = args.eps
        out = {
            "alpha": args.alpha,
            "beta": args.beta,
            "eps": eps,
            "tail_exponent": tail_exponent(args.alpha, args.beta, eps),
            "dominant_tilt": dominant_tilt(args.alpha, args.beta, eps),
        }
        if args.m is not None and args.n is not None:
            log_t_star = log_dominant_term_max(args.m, args.n, args.alpha, args.beta, eps)
            out["log_t_star"] = log_t_star
            out["normalized"] = -log_t_star / ((args.m / args.n) * math.log(args.n))
            out["validated_regime"] = args.m == args.n // 2
        _emit(out)
        return EXIT_OK
    if None in (args.mz, args.mw, args.p, args.q, args.s):
        raise ValueError("tail needs --mz --mw --p --q --s (or --exponent)")
    res = diff_binomial_tail(args.mz, args.mw, args.p, args.q, args.s)
    _emit(res.to_dict())
    return EXIT_OK


def _cmd_threshold(args) -> int:
    _emit(recovery_threshold(args.alpha, args.beta).to_dict())
    return EXIT_OK


def _cmd_events(args) -> int:
    rates = estimate_event_probabilities(
        SbmParams(args.n, args.alpha, args.beta), trials=args.trials, seed=args.seed
    )
    _emit(
        {
            "n": args.n,
            "alpha": args.alpha,
            "beta": args.beta,
            "trials": rates.trials,
            "ml_failure_rate": rates.ml_failure_rate,
            "majority_failure_rate": rates.majority_failure_rate,
            "sparse_subset_rate": rates.sparse_subset_rate,
            "margin_event_rate": rates.margin_event_rate,
            "implication_violations": rates.implication_violations,
            "subset_size": rates.subset_size,
            "margin": rates.margin,
            "schedule_fallback": rates.schedule_fallback,
        }
    )
    return EXIT_OK


def _parse_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range {spec!r} must be START:STOP:STEP")
    start, stop, step = (float(x) for x in parts)
    if step <= 0:
        raise ValueError("range step must be positive")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    if count <= 0:
        raise ValueError(f"range {spec!r} is empty")
    return [start + i * step for i in range(count)]


def _cmd_phase(args) -> int:
    points = phase_diagram(
        args.method,
        args.n,
        _parse_range(args.alpha),
        _parse_range(args.beta),
        args.trials,
        args.seed,
        workers=args.workers,
        **(
            {"split_c": args.split_c, "oracle": args.oracle, "oracle_delta": args.delta}
            if args.method == "two-phase"
            else {}
        ),
    )
    csv_text = format_phase_csv(points)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(csv_text)
    _emit({"points": len(points), "out": args.out})
    return EXIT_OK


def _cmd_curves(args) -> int:
    points = boundary_curves(_parse_range(args.beta))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(format_curves_csv(points))
    _emit({"points": len(points), "out": args.out})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbmx",
        description="Exact community recovery experiments on the planted bisection model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="sample a planted graph and labeling")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--alpha", type=float, required=True)
    p_gen.add_argument("--beta", type=float, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--graph-out", required=True)
    p_gen.add_argument("--labels-out", required=True)
    p_gen.set_defaults(func=_cmd_gen)

    p_rec = sub.add_parser("recover", help="run one recovery method on a graph file")
    p_rec.add_argument("--method", choices=METHODS, required=True)
    p_rec.add_argument("--graph", required=True)
    p_rec.add_argument("--labels")
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--split-c", type=float, default=SplitConfig.c)
    p_rec.add_argument("--oracle", choices=["spectral", "cheating"], default="spectral")
    p_rec.add_argument("--delta", type=float, default=0.1)
    p_rec.add_argument("--rounds", type=int, default=1)
    p_rec.set_defaults(func=_cmd_recover)

    p_tail = sub.add_parser("tail", help="exact binomial-difference tails and exponents")
    p_tail.add_argument("--mz", type=int)
    p_tail.add_argument("--mw", type=int)
    p_tail.add_argument("--p", type=float)
    p_tail.add_argument("--q", type=float)
    p_tail.add_argument("--s", type=float)
    p_tail.add_argument("--exponent", action="store_true")
    p_tail.add_argument("--alpha", type=float)
    p_tail.add_argument("--beta", type=float)
    p_tail.add_argument("--eps", type=float, default=0.0)
    p_tail.add_argument("--m", type=int)
    p_tail.add_argument("--n", type=int)
    p_tail.set_defaults(func=_cmd_tail)

    p_thr = sub.add_parser("threshold", help="evaluate the recovery threshold")
    p_thr.add_argument("--alpha", type=float, required=True)
    p_thr.add_argument("--beta", type=float, required=True)
    p_thr.set_defaults(func=_cmd_threshold)

    p_events = sub.add_parser("events", help="Monte Carlo rates of the failure events")
    p_events.add_argument("--n", type=int, required=True)
    p_events.add_argument("--alpha", type=float, required=True)
    p_events.add_argument("--beta", type=float, required=True)
    p_events.add_argument("--trials", type=int, required=True)
    p_events.add_argument("--seed", type=int, default=0)
    p_events.set_defaults(func=_cmd_events)

    p_phase = sub.add_parser("phase", help="success-rate sweep over a parameter grid")
    p_phase.add_argument("--method", choices=METHODS, required=True)
    p_phase.add_argument("--n", type=int, required=True)
    p_phase.add_argument("--alpha", required=True, help="A0:A1:STEP")
    p_phase.add_argument("--beta", required=True, help="B0:B1:STEP")
    p_phase.add_argument("--trials", type=int, required=True)
    p_phase.add_argument("--seed", type=int, required=True)
    p_phase.add_argument("--out", required=True)
    p_phase.add_argument("--workers", type=int, default=1)
    p_phase.add_argument("--split-c", type=float, default=SplitConfig.c)
    p_phase.add_argument("--oracle", choices=["spectral", "cheating"], default="spectral")
    p_phase.add_argument("--delta", type=float, default=0.1)
    p_phase.set_defaults(func=_cmd_phase)

    p_curves = sub.add_parser("curves", help="threshold boundary curves per beta")
    p_curves.add_argument("--beta", required=True, help="B0:B1:STEP")
    p_curves.add_argument("--out", required=True)
    p_curves.set_defaults(func=_cmd_curves)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
