"""``compare A.json B.json``: did B regress against A?

One row per (workload, end-to-end metric): both values with the interval
the middle half of repeated runs would fall in (``stats.quantile_interval``),
the ratio with its base, and a verdict.

``worse`` / ``better``
    B's value is beyond the metric's bound on that side of A's.
``unresolved``
    The run-to-run spread (the wider interval, as a share of its value)
    exceeds the bound *and* the two intervals overlap: the sample cannot
    tell, so it is not reported as unchanged.
``same``
    Anything else.

For every changed row the layer whose traced ``self_s`` moved most is
named.  Exit code 1 on any ``worse`` row or any rise in ``fail_frac``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterator, List, Tuple

from .metrics import END_TO_END, EXTRA, Metric
from .trace import LAYERS

__all__ = ["compare", "compare_files", "verdict"]


def _load(path: str) -> Dict[str, Any]:
    """A ``run`` report; ``FILE:N`` picks run ``N`` of a trajectory file."""
    index = -1
    if ":" in path and path.rsplit(":", 1)[1].lstrip("-").isdigit():
        path, number = path.rsplit(":", 1)
        index = int(number)
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    return report["runs"][index] if "runs" in report else report


def _rows(workload: str) -> Iterator[Metric]:
    yield from END_TO_END
    for metric, workloads in EXTRA:
        if workload in workloads:
            yield metric


def _reading(timed: Dict[str, Any], name: str) -> Tuple[float, float, float] | None:
    row = timed.get("end_to_end", {}).get(name) or timed.get("extra", {}).get(name)
    if row is None:
        return None
    samples = row.get("samples")
    value = row["value"]
    return (value, samples["lo"], samples["hi"]) if samples else (value, value, value)


def verdict(
    metric: Metric, base: Tuple[float, float, float], change: Tuple[float, float, float]
) -> str:
    """Classify ``change`` against ``base``; each is ``(value, lo, hi)``."""
    (a, a_lo, a_hi), (b, b_lo, b_hi) = base, change
    worse_by = (b - a) if metric.better == "lower" else (a - b)
    if metric.bound == 0.0 or a == 0.0:
        return "worse" if worse_by > 0 else "better" if worse_by < 0 else "same"
    worse_by /= abs(a)
    spread = max((a_hi - a_lo) / abs(a), (b_hi - b_lo) / abs(b) if b else 0.0)
    if spread > metric.bound and a_lo <= b_hi and b_lo <= a_hi:
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "better"
    return "same"


def _moved_layer(base: Dict[str, Any], change: Dict[str, Any]) -> str:
    a, b = base.get("per_layer"), change.get("per_layer")
    if not a or not b:
        return ""
    layer = max(LAYERS, key=lambda l: abs(b[f"{l}.self_s"] - a[f"{l}.self_s"]))
    return f"{layer}.self_s {a[f'{layer}.self_s']:.4g} -> {b[f'{layer}.self_s']:.4g} s"


def compare(base: Dict[str, Any], change: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], bool]:
    """Rows for every shared (workload, metric); ``True`` if B regressed."""
    rows: List[Dict[str, Any]] = []
    regressed = False
    for workload, entry_a in base["workloads"].items():
        entry_b = change["workloads"].get(workload)
        if entry_b is None:
            continue
        for metric in _rows(workload):
            a = _reading(entry_a.get("timed", {}), metric.name)
            b = _reading(entry_b.get("timed", {}), metric.name)
            if a is None or b is None:
                continue
            result = verdict(metric, a, b)
            regressed |= result == "worse"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "base": a,
                    "change": b,
                    "ratio": b[0] / a[0] if a[0] else float("nan"),
                    "bound": metric.bound,
                    "verdict": result,
                    "layer": (
                        _moved_layer(entry_a.get("traced", {}), entry_b.get("traced", {}))
                        if result in ("better", "worse")
                        else ""
                    ),
                }
            )
    return rows, regressed


def compare_files(base_path: str, change_path: str) -> int:
    rows, regressed = compare(_load(base_path), _load(change_path))
    print(
        f"{'workload':<20} {'metric':<20} {'A [lo, hi]':>34} {'B [lo, hi]':>34} "
        f"{'B/A':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        a, b = row["base"], row["change"]
        print(
            f"{row['workload']:<20} {row['metric']:<20} "
            f"{a[0]:>12.5g} [{a[1]:>8.4g}, {a[2]:>8.4g}] "
            f"{b[0]:>12.5g} [{b[1]:>8.4g}, {b[2]:>8.4g}] "
            f"{row['ratio']:>8.3f} {row['bound']:>6.2f}  {row['verdict']}"
            + (f"  <- {row['layer']}" if row["layer"] else "")
        )
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(
        f"B/A is B's value over A's (base A = {base_path}); "
        + ", ".join(f"{n} {v}" for v, n in sorted(counts.items()))
    )
    return 1 if regressed else 0
