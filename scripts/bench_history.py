#!/usr/bin/env python3
"""Append benchmark key metrics to the committed trajectory file.

The benchmark suites under ``benchmarks/`` each write a JSON result file
(``bench_eval.json``, ``bench_solver.json``, ...).  Those files are
snapshots: each run overwrites the last.  This script distils the headline
metrics out of whichever result files are present and **appends** them as
one entry to ``benchmarks/trajectory.json``, which is committed — so the
repository accumulates a longitudinal record of how the key performance
numbers move PR over PR, and a regression shows up as a kink in the
series rather than a silently replaced snapshot.

Usage:

    PYTHONPATH=src python -m pytest benchmarks/ -q   # refresh snapshots
    python scripts/bench_history.py --label "PR 7"   # record them

    python scripts/bench_history.py --dry-run        # inspect, no write
    python scripts/bench_history.py --show           # print the series

The entry records the current commit, a timestamp, and one metrics block
per recognised result file.  Unrecognised or missing files are skipped
(the script never fails because a suite was not run); ``--require`` makes
missing files an error for CI use.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
from typing import Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(REPO_ROOT, "benchmarks")
TRAJECTORY_PATH = os.path.join(BENCH_DIR, "trajectory.json")

#: The headline metrics per result file, as dotted paths into its JSON.
#: Fresh (uncommitted) variants of a file are preferred when present.
KEY_METRICS: Dict[str, List[str]] = {
    "bench_eval.json": [
        "search_speedup",
        "check_speedup",
        "compiled_search_assignments_per_second",
        "prune_rate",
    ],
    "bench_solver.json": [
        "obligations_per_second",
        "corpus_seconds",
        "bounded_search_microbench.speedup_vs_tree",
        "bounded_search_microbench.assignments_per_second",
        "solver.prefiltered_cubes",
    ],
    "bench_telemetry.json": [
        "disabled_overhead_fraction",
        "enabled_wall_ratio",
    ],
    "bench_explore.json": [
        "cold_candidates_per_second",
        "warm_cache_hit_rate",
        "cold_session_reuse_rate",
        "depth_scaling.depth4_reuse_rate",
        "depth_scaling.depth4_wall_seconds",
        "depth_scaling.wall_ratio_vs_depth2",
    ],
    "bench_formula_core.json": [
        "substitute_ops_per_second",
        "fingerprint_warm_ops_per_second",
        "intern_hit_rate",
    ],
}


def _dig(payload: object, path: str) -> Optional[object]:
    """Resolve a dotted path into nested dicts; None when absent."""
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def _result_path(name: str) -> Optional[str]:
    """The freshest available result file for ``name`` (or None)."""
    stem, ext = os.path.splitext(name)
    for candidate in (f"{stem}.fresh{ext}", name):
        path = os.path.join(BENCH_DIR, candidate)
        if os.path.exists(path):
            return path
    return None


def collect_metrics(require: bool = False) -> Dict[str, Dict[str, object]]:
    """Key metrics per recognised result file present in ``benchmarks/``."""
    metrics: Dict[str, Dict[str, object]] = {}
    for name, paths in sorted(KEY_METRICS.items()):
        result_path = _result_path(name)
        if result_path is None:
            if require:
                raise SystemExit(f"required benchmark result missing: {name}")
            continue
        try:
            with open(result_path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot read {result_path}: {error}")
        block: Dict[str, object] = {}
        for path in paths:
            value = _dig(payload, path)
            if value is not None:
                block[path] = value
        if block:
            block["source"] = os.path.basename(result_path)
            if "experiment" in payload:
                block["experiment"] = payload["experiment"]
            metrics[name] = block
    return metrics


def current_commit() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def load_trajectory(path: str = TRAJECTORY_PATH) -> List[Dict[str, object]]:
    if not os.path.exists(path):
        return []
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    entries = payload.get("entries", []) if isinstance(payload, dict) else payload
    if not isinstance(entries, list):
        raise SystemExit(f"{path} is not a trajectory file")
    return entries


def save_trajectory(
    entries: List[Dict[str, object]], path: str = TRAJECTORY_PATH
) -> None:
    payload = {
        "description": (
            "Longitudinal benchmark record: one entry per recorded run, "
            "appended by scripts/bench_history.py (never rewritten)."
        ),
        "entries": entries,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def render_series(entries: List[Dict[str, object]]) -> str:
    """A compact per-metric history table across all entries."""
    if not entries:
        return "trajectory is empty"
    lines = []
    for entry in entries:
        header = f"{entry.get('recorded_at', '?')}  {entry.get('commit', '?')}"
        if entry.get("label"):
            header += f"  [{entry['label']}]"
        lines.append(header)
        for name, block in sorted(entry.get("metrics", {}).items()):
            for key, value in sorted(block.items()):
                if key in ("source", "experiment"):
                    continue
                rendered = f"{value:.4g}" if isinstance(value, float) else value
                lines.append(f"    {name}:{key} = {rendered}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="append benchmark key metrics to benchmarks/trajectory.json"
    )
    parser.add_argument("--label", default="", help="label for this entry (e.g. a PR name)")
    parser.add_argument(
        "--require",
        action="store_true",
        help="fail when a recognised benchmark result file is missing",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="print the entry that would be appended, write nothing",
    )
    parser.add_argument(
        "--show", action="store_true", help="print the recorded series and exit"
    )
    args = parser.parse_args(argv)

    if args.show:
        print(render_series(load_trajectory()))
        return 0

    metrics = collect_metrics(require=args.require)
    if not metrics:
        raise SystemExit(
            "no benchmark result files found; run the suites first "
            "(PYTHONPATH=src python -m pytest benchmarks/ -q)"
        )
    entry: Dict[str, object] = {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat(),
        "commit": current_commit(),
        "metrics": metrics,
    }
    if args.label:
        entry["label"] = args.label

    if args.dry_run:
        print(json.dumps(entry, indent=2, sort_keys=True))
        return 0

    entries = load_trajectory()
    entries.append(entry)
    save_trajectory(entries)
    print(
        f"appended entry {len(entries)} ({len(metrics)} benchmark blocks) "
        f"to {os.path.relpath(TRAJECTORY_PATH, REPO_ROOT)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
