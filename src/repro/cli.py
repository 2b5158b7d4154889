"""Command-line interface: run MPDS / NDS queries on edge-list files.

Usage (after ``pip install -e .``)::

    repro-mpds mpds graph.txt --k 3 --theta 200
    repro-mpds nds graph.txt --k 5 --min-size 3 --theta 400
    repro-mpds query graph.txt --sampler mc:theta=200,seed=7 \\
        --run mpds:k=3 --run mpds:k=3,measure=clique:h=3 --run nds:k=2
    repro-mpds exact graph.txt --k 3
    repro-mpds stats graph.txt

``graph.txt`` is a probabilistic edge list (one ``u v p`` per line; ``#``
comments allowed).

Samplers and measures are named by :mod:`repro.specs` registry strings:
``--sampler mc`` / ``lp`` / ``rss:r=4`` (case-insensitive; a sampler
spec may carry ``theta=``/``seed=``, which override the flags), and
``--measure edge`` / ``clique:h=3`` / ``pattern:psi=diamond`` /
``surplus:alpha=0.33``.  The historical ``--density``/``--h``/
``--pattern``/``--alpha`` flags still work; ``--measure`` wins when both
are given.

``query`` runs several variants in one process through a single
:class:`repro.session.Session`: the worlds named by ``--sampler`` are
sampled **once** and every ``--run`` replays them (different ``k``,
``min_size``, measure, ``mpds`` vs ``nds``) -- the warm-query workload
the session API exists for.  A ``--run`` spec is
``mpds[:k=3,measure=clique:h=3,...]`` or ``nds[:k=2,min_size=3,...]``.

``--engine {auto,python,vectorized,jit}`` picks the possible-world engine
(:mod:`repro.engine`); estimates are identical across engines for a
fixed ``--seed``.  ``--workers N|auto`` fans the sampled worlds out over
the shared-memory parallel substrate (:mod:`repro.core.parallel`);
``auto`` sizes the fan-out to the host's usable cores.  For a fixed
``--seed`` the estimates are byte-identical to the sequential run for
any worker count, with every sampler (MC, LP, RSS).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Union

from .core.exact import exact_top_k_mpds
from .core.measures import DensityMeasure
from .core.results import _node_list
from .graph.io import read_uncertain_edge_list
from .graph.uncertain import edge_probability_statistics
from .session import Session
from .specs import (
    PATTERNS,
    build_measure,
    build_sampler,
    check_int_knob,
    parse_spec,
    split_sampler_spec,
)


def _build_cli_measure(args: argparse.Namespace) -> DensityMeasure:
    heuristic = getattr(args, "heuristic", False)
    spec = getattr(args, "measure", None)
    if spec:
        return build_measure(spec, heuristic=heuristic)
    if args.density == "edge":
        return build_measure("edge", heuristic=heuristic)
    if args.density == "clique":
        return build_measure("clique", h=args.h, heuristic=heuristic)
    if args.density == "surplus":
        return build_measure("surplus", alpha=args.alpha, heuristic=heuristic)
    return build_measure("pattern", psi=args.pattern, heuristic=heuristic)


def _workers_arg(text: str) -> Union[int, str]:
    if text == "auto":
        return "auto"
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer or 'auto', got {text!r}"
        )
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 1 or 'auto', got {text}"
        )
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="probabilistic edge list file (u v p)")
    parser.add_argument("--k", type=int, default=1, help="how many results")
    parser.add_argument(
        "--density",
        choices=("edge", "clique", "pattern", "surplus"),
        default="edge",
    )
    parser.add_argument(
        "--measure", default=None, metavar="SPEC",
        help="measure registry spec (edge | clique:h=3 | "
        "pattern:psi=diamond | surplus:alpha=0.33); overrides --density",
    )
    parser.add_argument("--h", type=int, default=3, help="clique size")
    parser.add_argument(
        "--alpha", type=float, default=1 / 3,
        help="edge-surplus trade-off (only with --density surplus)",
    )
    parser.add_argument(
        "--pattern", choices=sorted(PATTERNS), default="diamond"
    )
    parser.add_argument("--seed", type=int, default=None)


def _add_engine_and_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=("auto", "python", "vectorized", "jit"),
        default="auto",
        help="possible-world engine (auto picks the fastest byte-identical "
        "path; 'jit' is an alias of 'vectorized'; see repro.engine)",
    )
    parser.add_argument(
        "--workers", type=_workers_arg, default=1, metavar="N|auto",
        help="fan the sampled worlds out over this many processes "
        "('auto' = the host's usable cores; shared-memory substrate; "
        "estimates are byte-identical to a sequential run for a fixed "
        "--seed, for any worker count)",
    )


def _print_scored(scored_sets, label: str) -> None:
    for rank, scored in enumerate(scored_sets, 1):
        nodes = " ".join(map(str, _node_list(scored.nodes)))
        print(f"{rank}\t{scored.probability:.6f}\t{label}\t{nodes}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-mpds",
        description="Most Probable Densest Subgraphs in uncertain graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mpds = sub.add_parser("mpds", help="top-k MPDS (Algorithm 1)")
    _add_common(mpds)
    mpds.add_argument("--theta", type=int, default=160, help="sample count")
    mpds.add_argument(
        "--sampler", default="MC", metavar="SPEC",
        help="sampler registry spec: mc | lp | rss[:r=4,...] "
        "(case-insensitive; theta=/seed= in the spec override the flags)",
    )
    _add_engine_and_workers(mpds)
    mpds.add_argument(
        "--heuristic", action="store_true",
        help="use the Section III-C core heuristic instead of enumeration",
    )
    mpds.add_argument(
        "--one-per-world", action="store_true",
        help="record only one densest subgraph per world (Table IX ablation)",
    )

    nds = sub.add_parser("nds", help="top-k NDS (Algorithm 5)")
    _add_common(nds)
    nds.add_argument("--theta", type=int, default=640, help="sample count")
    nds.add_argument(
        "--sampler", default="MC", metavar="SPEC",
        help="sampler registry spec: mc | lp | rss[:r=4,...] "
        "(case-insensitive; theta=/seed= in the spec override the flags)",
    )
    _add_engine_and_workers(nds)
    nds.add_argument("--min-size", type=int, default=2, help="l_m")
    nds.add_argument("--heuristic", action="store_true")

    query = sub.add_parser(
        "query",
        help="run several MPDS/NDS variants on one Session "
        "(worlds sampled once, every --run replays them)",
    )
    query.add_argument("graph", help="probabilistic edge list file (u v p)")
    query.add_argument(
        "--sampler", default="MC", metavar="SPEC",
        help="sampler spec shared by every run "
        "(e.g. mc:theta=200,seed=7)",
    )
    query.add_argument(
        "--theta", type=int, default=None,
        help="sample count (default: 160 for mpds runs, 640 for nds runs)",
    )
    query.add_argument("--seed", type=int, default=None)
    query.add_argument(
        "--run", action="append", default=None, metavar="SPEC",
        help="one query to run on the shared worlds: "
        "mpds[:k=3,measure=clique:h=3] or nds[:k=2,min_size=3]; "
        "repeatable (default: one 'mpds' run)",
    )
    _add_engine_and_workers(query)

    serve = sub.add_parser(
        "serve",
        help="start the repro-serve query daemon (long-lived sessions, "
        "admission batching; see repro.serve)",
    )
    from .serve import add_serve_arguments

    add_serve_arguments(serve)

    exact = sub.add_parser(
        "exact", help="exact top-k MPDS by 2^m world enumeration (tiny graphs)"
    )
    _add_common(exact)

    stats = sub.add_parser("stats", help="dataset statistics (Table II style)")
    stats.add_argument("graph")

    reproduce = sub.add_parser(
        "reproduce",
        help="regenerate one of the paper's tables / figures by name",
    )
    reproduce.add_argument(
        "experiment",
        help="experiment id (e.g. table1, fig16a, karate-case); "
        "use 'list' to see all",
    )
    return parser


#: --run keys every query run accepts
_RUN_KEYS = {"k", "min_size", "measure", "theta", "seed", "engine", "workers"}


def _run_query_command(args: argparse.Namespace) -> int:
    """The ``query`` subcommand: one Session, several warm runs."""
    graph = read_uncertain_edge_list(args.graph)
    try:
        kind, spec_theta, spec_seed, sampler_params = split_sampler_spec(
            args.sampler
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    theta = spec_theta if spec_theta is not None else args.theta
    seed = spec_seed if spec_seed is not None else args.seed
    try:
        check_int_knob("option --theta", "theta", theta, positive=True)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    runs = args.run or ["mpds"]
    with Session(graph, engine=args.engine, workers=args.workers) as session:
        for run_spec in runs:
            try:
                algo, params = parse_spec(run_spec)
            except ValueError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            if algo not in ("mpds", "nds"):
                print(
                    f"unknown run algorithm {algo!r} in {run_spec!r} "
                    "(expected mpds or nds)",
                    file=sys.stderr,
                )
                return 2
            unknown = set(params) - _RUN_KEYS
            if unknown:
                print(
                    f"unknown run parameter(s) {sorted(unknown)} in "
                    f"{run_spec!r}; accepted: {sorted(_RUN_KEYS)}",
                    file=sys.stderr,
                )
                return 2
            try:
                q = session.query().sampler(
                    kind,
                    theta=params.get("theta", theta),
                    seed=params.get("seed", seed),
                    **sampler_params,
                )
                q.measure(build_measure(params.get("measure")))
                q.top_k(params.get("k", 1))
                if "engine" in params:
                    q.engine(params["engine"])
                if "workers" in params:
                    q.workers(params["workers"])
                if algo == "mpds":
                    result = q.mpds()
                    label = "tau-hat"
                else:
                    q.min_size(params.get("min_size", 2))
                    result = q.nds()
                    label = "gamma-hat"
            except (ValueError, TypeError) as exc:
                print(f"run {run_spec!r}: {exc}", file=sys.stderr)
                return 2
            print(f"# run {run_spec}")
            _print_scored(result.top, label)
        stats = session.stats
    if stats["stores_built"]:
        print(
            f"# session: {stats['worlds_sampled']} worlds sampled in "
            f"{stats['stores_built']} draw(s), "
            f"{stats['store_hits'] + stats['eval_hits']} warm hit(s) "
            f"across {stats['queries']} queries"
        )
    else:
        # nothing was cacheable (unseeded): say so instead of implying
        # the runs sampled nothing
        print(
            f"# session: unseeded -- {stats['worlds_sampled']} worlds "
            f"sampled across {stats['queries']} queries with no reuse; "
            "pass --seed (or seed= in --sampler) to share worlds"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = make_parser().parse_args(argv)

    if args.command == "reproduce":
        from .experiments.registry import experiment_names, run_experiment

        if args.experiment == "list":
            for name in experiment_names():
                print(name)
            return 0
        try:
            print(run_experiment(args.experiment))
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
        return 0

    if args.command == "serve":
        from .serve import run_serve_command

        return run_serve_command(args)

    if args.command == "query":
        return _run_query_command(args)

    graph = read_uncertain_edge_list(args.graph)

    if args.command == "stats":
        stats = edge_probability_statistics(graph)
        print(f"nodes\t{graph.number_of_nodes()}")
        print(f"edges\t{graph.number_of_edges()}")
        print(f"prob_mean\t{stats['mean']:.4f}")
        print(f"prob_std\t{stats['std']:.4f}")
        print(
            "prob_quartiles\t"
            f"{stats['q1']:.4f} {stats['q2']:.4f} {stats['q3']:.4f}"
        )
        return 0

    try:
        measure = _build_cli_measure(args)
        if args.command in ("mpds", "nds"):
            kind, spec_theta, spec_seed, sampler_params = split_sampler_spec(
                args.sampler
            )
            theta = spec_theta if spec_theta is not None else args.theta
            seed = spec_seed if spec_seed is not None else args.seed
            check_int_knob("option --theta", "theta", theta, positive=True)
            sampler = build_sampler(kind, graph, seed, **sampler_params)
    except (ValueError, TypeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.command in ("mpds", "nds"):
        with Session(
            graph, engine=args.engine, workers=args.workers
        ) as session:
            query = (
                session.query().sampler(sampler, theta=theta)
                .measure(measure).top_k(args.k)
            )
            if args.command == "mpds":
                result = query.enumerate_all(not args.one_per_world).mpds()
                label = "tau-hat"
            else:
                result = query.min_size(args.min_size).nds()
                label = "gamma-hat"
        _print_scored(result.top, label)
    else:  # exact
        if graph.number_of_edges() > 22:
            print(
                "refusing exact enumeration on > 22 edges "
                f"(got {graph.number_of_edges()}); use `mpds`",
                file=sys.stderr,
            )
            return 2
        result = exact_top_k_mpds(graph, k=args.k, measure=measure)
        _print_scored(result.top, "tau")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
