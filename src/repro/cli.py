"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print Table III (the stand-in datasets vs the paper's).
``run``
    Run one influence-maximization algorithm on a dataset and print the
    result summary (seeds, spread estimate, time breakdown).
``experiment``
    Regenerate one of the paper's tables/figures and print its rows.
``validate``
    Monte-Carlo validate a comma-separated seed list on a dataset.
``app``
    Run an influence-based application (paper Section VI).
``serve``
    Start the warm influence service (``--dynamic`` accepts graph
    updates).
``worker``
    Start one socket-executor worker process for ``--executor socket:...``.
``update``
    Send graph updates to a running dynamic service.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from .api import ALGORITHMS
    from .core.config import BACKENDS, MODELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed influence maximization (ICDE 2022 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="print Table III dataset statistics")

    run = sub.add_parser("run", help="run an algorithm on a dataset")
    run.add_argument("--dataset", default="facebook")
    run.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="diimm",
    )
    run.add_argument("--k", type=int, default=50)
    run.add_argument("--machines", type=int, default=16)
    run.add_argument("--eps", type=float, default=0.5)
    run.add_argument("--model", choices=MODELS, default="ic")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--network", choices=("cluster", "server"), default="server"
    )
    run.add_argument(
        "--executor",
        default="simulated",
        metavar="SPEC",
        help="phase-plan executor spec: 'simulated', 'multiprocessing[:N]' "
        "or 'socket[:N | :HOST:PORT,PORT;HOST:PORT]' (workers started with "
        "'repro worker'; ignored by imm, which is single-machine)",
    )
    run.add_argument(
        "--backend",
        choices=BACKENDS,
        default="flat",
        help="RR-set store: the exact CSR store, or per-node HyperLogLog "
        "register banks (memory-bounded estimates)",
    )
    run.add_argument(
        "--sketch-precision",
        type=int,
        default=10,
        metavar="P",
        help="registers per node for --backend sketch (m = 2**P bytes; "
        "relative error ~ 1.04/sqrt(2**P); default 10)",
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        help="directory for per-round driver snapshots; a killed run can "
        "be continued from the latest one with --resume",
    )
    run.add_argument(
        "--resume",
        action="store_true",
        help="resume from the latest snapshot in --checkpoint-dir "
        "(finishing with the identical seed set a fresh run would)",
    )
    run.add_argument(
        "--fault-plan",
        default=None,
        metavar="SPEC",
        help="inject faults: ';'-separated kind@m<id>[r<round>][a<attempt>]"
        "[x<factor>] with kind one of crash, crash-hard, straggler, corrupt, "
        "drop, disconnect (e.g. 'crash@m1r2;straggler@m0x3'); the seed set is "
        "identical to a fault-free run.  Without it nothing is injected; the "
        "retry policy always applies",
    )
    run.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="attempts each machine gets per generation phase before its "
        "quota is reassigned (default 3; real failures count too)",
    )
    run.add_argument(
        "--phase-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline after which an unresponsive machine is declared lost "
        "(wall-clock on the worker-backed executors, simulated time "
        "otherwise; default none)",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure or an extension"
    )
    experiment.add_argument(
        "name",
        choices=(
            "table3", "table4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "quality", "frameworks",
        ),
    )
    experiment.add_argument(
        "--datasets", nargs="+", default=None, help="subset of datasets"
    )
    experiment.add_argument("--k", type=int, default=50)
    experiment.add_argument("--eps", type=float, default=0.5)

    app = sub.add_parser(
        "app", help="run an influence-based application (paper Section VI)"
    )
    app.add_argument(
        "name",
        choices=("targeted", "budgeted", "seedmin", "profit", "adaptive"),
    )
    app.add_argument("--dataset", default="facebook")
    app.add_argument("--machines", type=int, default=8)
    app.add_argument("--rr-sets", type=int, default=20000)
    app.add_argument("--k", type=int, default=20, help="seeds (targeted/adaptive)")
    app.add_argument("--budget", type=float, default=25.0, help="budgeted IM budget")
    app.add_argument(
        "--required-spread", type=float, default=None,
        help="seed-minimization target (defaults to 20%% of n)",
    )
    app.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="start a warm influence service answering queries over a "
        "shared RR-sample pool (JSON lines over TCP)",
    )
    serve.add_argument("--dataset", default="facebook")
    serve.add_argument("--machines", type=int, default=8)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--model", choices=MODELS, default="ic")
    serve.add_argument(
        "--executor",
        default="simulated",
        metavar="SPEC",
        help="executor spec for the pools: 'simulated', 'multiprocessing[:N]' "
        "or 'socket:...' (see the run command)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7313, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--cache-size", type=int, default=128, help="memoized query results"
    )
    serve.add_argument(
        "--dynamic",
        action="store_true",
        help="serve a mutable graph: the service accepts 'update' requests "
        "(see the update command) that repair resident RR sets in place; "
        "answers on an unchanged graph equal a static service's",
    )

    update = sub.add_parser(
        "update",
        help="send graph updates to a running dynamic service "
        "(started with serve --dynamic); each lands whole, repairing the "
        "resident RR sets, or is refused unapplied",
    )
    update.add_argument("--host", default="127.0.0.1")
    update.add_argument(
        "--port", type=int, default=7313, help="port the service listens on"
    )
    update.add_argument(
        "--updates",
        default=None,
        metavar="FILE",
        help="JSONL file of GraphDelta payloads (keys add_edges, "
        "remove_edges, reweight_edges, remove_nodes, add_nodes), "
        "sent in order",
    )
    update.add_argument(
        "--add-edge", action="append", default=[], metavar="U:V:P",
        help="insert edge u->v with probability p (repeatable)",
    )
    update.add_argument(
        "--remove-edge", action="append", default=[], metavar="U:V",
        help="delete edge u->v (repeatable)",
    )
    update.add_argument(
        "--reweight-edge", action="append", default=[], metavar="U:V:P",
        help="set edge u->v's probability to p (repeatable)",
    )
    update.add_argument(
        "--remove-node", action="append", default=[], metavar="ID", type=int,
        help="isolate a node, dropping all its edges (repeatable)",
    )
    update.add_argument(
        "--add-nodes", type=int, default=0, help="append this many fresh nodes"
    )

    worker = sub.add_parser(
        "worker",
        help="start one socket-executor worker; point a master at it with "
        "--executor socket:HOST:PORT",
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument(
        "--port", type=int, default=0, help="TCP port (0 picks a free one)"
    )

    validate = sub.add_parser("validate", help="Monte-Carlo validate seeds")
    validate.add_argument("--dataset", default="facebook")
    validate.add_argument("--seeds", required=True, help="comma-separated node ids")
    validate.add_argument("--model", choices=MODELS, default="ic")
    validate.add_argument("--samples", type=int, default=1000)

    return parser


def _cmd_datasets() -> int:
    from .experiments import print_table, table3_rows

    print_table(table3_rows(), title="Table III — datasets (ours vs paper)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .api import RunConfig, run
    from .cluster import RetryPolicy, gigabit_cluster, shared_memory_server
    from .cluster.tracing import summarize_recovery
    from .experiments import print_table
    from .graphs import load_dataset

    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    dataset = load_dataset(args.dataset)
    network = gigabit_cluster() if args.network == "cluster" else shared_memory_server()
    retry = None
    if args.max_retries is not None or args.phase_timeout is not None:
        retry = RetryPolicy(
            max_attempts=args.max_retries if args.max_retries is not None else 3,
            phase_timeout=args.phase_timeout,
        )
    try:
        config = RunConfig(
            graph=dataset.graph,
            k=args.k,
            machines=args.machines,
            eps=args.eps,
            model=args.model,
            seed=args.seed,
            backend=args.backend,
            sketch_precision=args.sketch_precision,
            executor=args.executor,
            network=network,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
            faults=args.fault_plan,
            retry=retry,
        )
        result = run(args.algorithm, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_table([result.summary_row()], title=f"{result.algorithm} on {args.dataset}")
    recovery = summarize_recovery(result.metrics)
    if recovery:
        print()
        print_table(recovery, title="Fault recovery")
    memory = result.metrics.memory_summary()
    if memory["peak_nbytes"]:
        print(
            f"\npeak memory: rr_store {memory['rr_store_nbytes'] / 1e6:.2f} MB, "
            f"coverage {memory['coverage_nbytes'] / 1e6:.2f} MB "
            f"(total {memory['peak_nbytes'] / 1e6:.2f} MB)"
        )
    print(f"\nseeds: {result.seeds}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        fig5_cluster_ic,
        fig6_server_ic,
        fig7_server_subsim,
        fig8_cluster_lt,
        fig9_server_lt,
        fig10_maxcover,
        framework_comparison,
        print_table,
        seed_quality_comparison,
        table3_rows,
        table4_rows,
    )
    from .graphs import DATASET_NAMES

    datasets = tuple(args.datasets) if args.datasets else DATASET_NAMES
    if args.name == "table3":
        rows = [r for r in table3_rows() if r["dataset"] in datasets]
    elif args.name == "table4":
        rows = table4_rows(datasets=datasets, k=args.k, eps=args.eps)
    elif args.name == "fig10":
        rows = fig10_maxcover(datasets=datasets, k=args.k)
    elif args.name == "quality":
        rows = seed_quality_comparison(datasets=datasets, k=args.k, eps=args.eps)
    elif args.name == "frameworks":
        rows = framework_comparison(datasets=datasets, k=args.k, eps=args.eps)
    else:
        runner = {
            "fig5": fig5_cluster_ic,
            "fig6": fig6_server_ic,
            "fig7": fig7_server_subsim,
            "fig8": fig8_cluster_lt,
            "fig9": fig9_server_lt,
        }[args.name]
        rows = runner(datasets=datasets, k=args.k, eps=args.eps)
    print_table(rows, title=args.name)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .analysis import evaluate_seeds
    from .graphs import load_dataset

    dataset = load_dataset(args.dataset)
    try:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    except ValueError:
        print(f"error: cannot parse seed list {args.seeds!r}", file=sys.stderr)
        return 2
    estimate = evaluate_seeds(
        dataset.graph, seeds, args.model, args.samples, np.random.default_rng(0)
    )
    low, high = estimate.ci()
    print(
        f"sigma({seeds}) ~= {estimate.mean:.1f} nodes "
        f"(95% CI [{low:.1f}, {high:.1f}], {args.samples} cascades, "
        f"{args.model.upper()} model)"
    )
    return 0


def _cmd_app(args: argparse.Namespace) -> int:
    from .applications import (
        adaptive_influence_maximization,
        budgeted_influence_maximization,
        profit_maximization,
        seed_minimization,
        targeted_influence_maximization,
    )
    from .experiments import print_table
    from .graphs import load_dataset
    from .serve import default_costs

    dataset = load_dataset(args.dataset)
    graph = dataset.graph
    n = graph.num_nodes
    rng = np.random.default_rng(args.seed)
    if args.name == "targeted":
        targets = rng.choice(n, size=max(n // 10, 1), replace=False)
        result = targeted_influence_maximization(
            graph, targets, k=args.k, num_machines=args.machines,
            num_rr_sets=args.rr_sets, seed=args.seed,
        )
    elif args.name == "budgeted":
        result = budgeted_influence_maximization(
            graph, default_costs(graph), budget=args.budget, num_machines=args.machines,
            num_rr_sets=args.rr_sets, seed=args.seed,
        )
    elif args.name == "seedmin":
        required = args.required_spread if args.required_spread else 0.2 * n
        result = seed_minimization(
            graph, required_spread=required, num_machines=args.machines,
            num_rr_sets=args.rr_sets, seed=args.seed,
        )
    elif args.name == "profit":
        result = profit_maximization(
            graph, default_costs(graph), num_machines=args.machines,
            num_rr_sets=args.rr_sets, seed=args.seed,
        )
    else:
        result = adaptive_influence_maximization(
            graph, k=args.k, num_machines=args.machines,
            rr_sets_per_round=max(args.rr_sets // max(args.k, 1), 100),
            seed=args.seed,
        )
    print_table([result.summary_row()], title=f"{result.application} on {args.dataset}")
    print(f"\nseeds: {result.seeds}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .graphs import load_dataset
    from .serve import InfluenceService, ServingFrontend

    dataset = load_dataset(args.dataset)
    try:
        service = InfluenceService(
            dataset.graph,
            machines=args.machines,
            seed=args.seed,
            model=args.model,
            executor=args.executor,
            cache_size=args.cache_size,
            dynamic=args.dynamic,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run_server() -> None:
        frontend = ServingFrontend(service, host=args.host, port=args.port)
        await frontend.start()
        mode = "dynamic" if args.dynamic else "static"
        print(
            f"serving {args.dataset} (n={dataset.graph.num_nodes}, "
            f"machines={args.machines}, {mode}) on {args.host}:{frontend.port} — "
            'send {"op": "query", "kind": "diimm", "k": 20} per line; '
            "Ctrl-C to stop"
        )
        await frontend.serve_forever()

    try:
        asyncio.run(run_server())
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .cluster import serve_worker

    def announce(port: int) -> None:
        print(
            f"worker listening on {args.host}:{port} — enroll it with "
            f"--executor socket:{args.host}:{port}; Ctrl-C to stop",
            flush=True,
        )

    try:
        serve_worker(args.host, args.port, ready=announce)
    except KeyboardInterrupt:
        print("\nshutting down")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    import json

    from .serve import request

    def parse_edge(spec: str, with_prob: bool):
        parts = spec.split(":")
        expected = 3 if with_prob else 2
        if len(parts) != expected:
            raise ValueError(
                f"expected {'U:V:P' if with_prob else 'U:V'}, got {spec!r}"
            )
        edge = [int(parts[0]), int(parts[1])]
        if with_prob:
            edge.append(float(parts[2]))
        return edge

    payloads = []
    try:
        if args.updates is not None:
            with open(args.updates, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        payloads.append(json.loads(line))
        inline = {
            "add_edges": [parse_edge(s, True) for s in args.add_edge],
            "remove_edges": [parse_edge(s, False) for s in args.remove_edge],
            "reweight_edges": [parse_edge(s, True) for s in args.reweight_edge],
            "remove_nodes": list(args.remove_node),
            "add_nodes": args.add_nodes,
        }
        inline = {k: v for k, v in inline.items() if v}
        if inline:
            payloads.append(inline)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not payloads:
        print("error: no updates given (see --updates / --add-edge ...)", file=sys.stderr)
        return 2
    for payload in payloads:
        reply = request(args.port, {"op": "update", **payload}, host=args.host)
        if not reply.get("ok"):
            print(f"error: {reply.get('error')}", file=sys.stderr)
            return 1
        print(
            f"graph v{reply['graph_version']}: {reply['num_changes']} changes, "
            f"repaired {reply['repaired']}, redrawn {reply['redrawn']}, "
            f"evicted {reply['evicted']} cached results"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "datasets":
        return _cmd_datasets()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "app":
        return _cmd_app(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "update":
        return _cmd_update(args)
    return 2  # unreachable: argparse enforces the choices
