"""Command line of the end-to-end benchmark.

``one``      one workload, the driver's contract: ``--workload --seed
             --seconds --trace``; last stdout line is the result object.
``run``      all six workloads (timed, then traced), the layer probes,
             every metric printed by name, one JSON written.
``probes``   the layer probes alone.
``compare``  two ``run`` results, row by row; exit 1 on a regression.
``contract`` print BENCHMARK.json as ``metrics.py`` defines it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List

from .metrics import END_TO_END, EXTRA, PER_LAYER, RUN_SECONDS, WORKLOADS, benchmark_json
from .runner import ChildFailed, header, run_child, workload_args

__all__ = ["main"]

_UNITS = {
    **{m.name: m.unit for m in END_TO_END},
    **{m.name: m.unit for m, _ in EXTRA},
    **{name: unit for name, unit, _ in PER_LAYER},
}


def _print_metrics(workload: str, rows: Dict[str, Any]) -> None:
    for name, row in rows.items():
        value = row["value"] if isinstance(row, dict) else row
        note = ""
        samples = row.get("samples") if isinstance(row, dict) else None
        if samples:
            note = (
                f"  (n={samples['n']}, q1={samples['q1']:.6g}, q3={samples['q3']:.6g}"
                + (f", {row['percentile']}" if "percentile" in row else "")
                + ")"
            )
        print(f"{workload:<20} {name:<34} {value:>14.6g} {_UNITS.get(name, ''):<6}{note}")


def _driver_line(result: Dict[str, Any]) -> str:
    """The one JSON object the driver reads from the last stdout line."""
    if result["trace"]:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        metrics = {
            m.name: {"value": result["end_to_end"][m.name]["value"], "unit": m.unit}
            for m in END_TO_END
        }
    return json.dumps(
        {
            "correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics,
        }
    )


def _print_result(name: str, result: Dict[str, Any]) -> None:
    """Every metric of one child result by name, then its failures."""
    if result["trace"]:
        _print_metrics(name, result["per_layer"])
    else:
        _print_metrics(name, {**result["end_to_end"], **result["extra"]})
    for failure in result["failures"]:
        print(f"FAILED {name}: {failure}", file=sys.stderr)


def _cmd_one(args: argparse.Namespace) -> int:
    try:
        result = run_child(
            "_child",
            workload_args(
                args.workload, args.seed, args.seconds, args.trace, args.smoke, args.trace_out
            ),
        )
    except ChildFailed as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 1
    _print_result(args.workload, result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(result, out, indent=1)
    print(_driver_line(result))
    return 0


def _run_once(args: argparse.Namespace) -> Dict[str, Any]:
    """Every workload timed then traced, then the probes: one report."""
    if args.traces:
        os.makedirs(args.traces, exist_ok=True)
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    report: Dict[str, Any] = {
        "header": header(args.seed, args.seconds, args.smoke),
        "workloads": {},
        "ok": True,
    }
    for name in names:
        entry: Dict[str, Any] = {}
        for trace, key in ((0, "timed"), (1, "traced")):
            trace_out = (
                f"{args.traces}/{name}.trace.json" if args.traces and trace else None
            )
            try:
                result = run_child(
                    "_child",
                    workload_args(name, args.seed, args.seconds, trace, args.smoke, trace_out),
                )
            except ChildFailed as exc:
                print(f"benchmarks.e2e: {exc}", file=sys.stderr)
                entry[key] = {"correct": False, "error": str(exc)}
                report["ok"] = False
                continue
            entry[key] = result
            report["ok"] &= bool(result["correct"])
            _print_result(name, result)
            calib = result["calib"]["machine_calib_s"]
            print(
                f"{name:<20} {key}: attempted={result['attempted']} "
                f"failed={result['failed']} machine_calib_s={calib['median']:.4f} "
                f"[{calib['min']:.4f}, {calib['max']:.4f}]"
                + (" NOISY" if result["calib"]["noisy"] else "")
            )
        report["workloads"][name] = entry
    if not args.smoke and not args.no_probes:
        try:
            report["probes"] = run_child("_probes", [])["probes"]
            _print_metrics("probes", report["probes"])
        except ChildFailed as exc:
            print(f"benchmarks.e2e: {exc}", file=sys.stderr)
            report["ok"] = False
    return report


def _cmd_run(args: argparse.Namespace) -> int:
    reports = [_run_once(args) for _ in range(args.repeat)]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            # One run is a report; several are a trajectory file's "runs".
            json.dump(reports[0] if args.repeat == 1 else {"runs": reports}, out, indent=1)
        print(f"wrote {args.out}")
    return 0 if all(report["ok"] for report in reports) else 1


def _cmd_probes(args: argparse.Namespace) -> int:
    try:
        result = run_child("_probes", [])
    except ChildFailed as exc:
        print(f"benchmarks.e2e: {exc}", file=sys.stderr)
        return 1
    _print_metrics("probes", result["probes"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(result, out, indent=1)
    return 0


def _cmd_contract(args: argparse.Namespace) -> int:
    print(json.dumps(benchmark_json(), indent=2))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .compare import compare_files

    return compare_files(args.base, args.change)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    one = sub.add_parser("one", help="one workload (the driver's contract)")
    one.add_argument("--workload", required=True, choices=list(WORKLOADS))
    one.add_argument("--seed", type=int, default=1)
    one.add_argument("--seconds", type=float, default=RUN_SECONDS)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--smoke", action="store_true")
    one.add_argument("--out", help="also write the full result here")
    one.add_argument("--trace-out", help="write the traced run's Chrome trace here")
    one.set_defaults(func=_cmd_one)

    run = sub.add_parser("run", help="all workloads, timed + traced, plus probes")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=RUN_SECONDS)
    run.add_argument("--out", help="write the JSON result here")
    run.add_argument("--smoke", action="store_true",
                     help="facebook everywhere, one repeat, short streams, no probes")
    run.add_argument("--workloads", help="comma-separated subset")
    run.add_argument("--traces", help="directory for Chrome traces of the traced runs")
    run.add_argument("--no-probes", action="store_true")
    run.add_argument("--repeat", type=int, default=1,
                     help="whole runs back to back; --out then holds {\"runs\": [...]}")
    run.set_defaults(func=_cmd_run)

    probes = sub.add_parser("probes", help="layer probes only")
    probes.add_argument("--out")
    probes.set_defaults(func=_cmd_probes)

    compare = sub.add_parser("compare", help="compare two run results")
    compare.add_argument("base")
    compare.add_argument("change")
    compare.set_defaults(func=_cmd_compare)

    contract = sub.add_parser("contract", help="print BENCHMARK.json from metrics.py")
    contract.set_defaults(func=_cmd_contract)

    if argv and argv[0] == "_child":
        from .child import main as child_main

        return child_main(argv[1:])
    if argv and argv[0] == "_probes":
        from .probes import main as probes_main

        return probes_main(argv[1:])
    args = parser.parse_args(argv)
    return args.func(args)
