"""The verifier's benchmark: one workload, measured in fresh interpreters.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload verify-studies --seed 1 --seconds 30 --trace 0

Each repetition of the workload runs in its own interpreter (``rep.py``),
because interned formulas and compiled closures persist within a process
and would make a second repetition run warm.  Repetitions are started while
they fit in ``--seconds`` (and at least two, so every run also checks that
one seed gives one output).  ``--trace 0`` reports the end-to-end metrics
over the repetitions; ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of ``layers.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``record`` with the environment, every repetition's raw values, and
which counts repeated exactly.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench-work")

WORKLOAD_NAMES = ("verify-studies", "explore-lu", "fuzz-funnel")
MIN_REPS = 2
#: No repetition starts later than this, and none runs past the deadline,
#: so a run ends within 180 s.
LAST_START_S = 120.0
DEADLINE_S = 170.0

#: What the sampling loop of ``speed.py`` takes on the host described in
#: README.md when that host is in its fast state.
REFERENCE_SAMPLE_S = 0.0003

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "reverify_s": "s",
    "programs_per_s": "1/s",
}


class BenchmarkError(RuntimeError):
    pass


def _rep(workload: str, seed: int, scale: str, mode: str, timeout: float) -> dict:
    workdir = tempfile.mkdtemp(prefix=f"{mode}-", dir=WORKDIR)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env["TMPDIR"] = workdir  # keeps the program's temporary files in the checkout
    # The order of hashed sets and dicts changes how long a pass takes (the
    # fuzz warm pass took 15.9 or 18.3 ms by hash seed alone), so every
    # repetition uses the same hash seed.
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
        "--seed", str(seed), "--scale", scale, "--mode", mode, "--workdir", workdir,
    ]
    try:
        spawned = time.monotonic()
        done = subprocess.run(command, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{mode} repetition overran the run's deadline") from error
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done.returncode != 0:
        raise BenchmarkError(f"{mode} repetition failed:\n{done.stderr[-4000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("ready") - spawned
    result["mode"] = mode
    return result


def _run_reps(workload: str, seed: int, scale: str, seconds: int, trace: bool) -> list:
    """Start repetitions while the next one, as long as the longest so far,
    would end within ``seconds`` (and at least ``MIN_REPS`` of each mode)."""
    start = time.monotonic()
    modes = ["plain", "traced"] if trace else ["plain"]
    reps: list = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        counts = {mode: sum(1 for r in reps if r["mode"] == mode) for mode in modes}
        enough = elapsed + longest > seconds and min(counts.values()) >= MIN_REPS
        if enough or (reps and elapsed > LAST_START_S):
            break
        mode = modes[len(reps) % len(modes)]
        reps.append(_rep(workload, seed, scale, mode, start + DEADLINE_S - time.monotonic()))
        longest = max(longest, time.monotonic() - start - elapsed)
    return reps


def _median(reps: list, key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def _at_reference_speed(rep: dict) -> dict:
    """The rep's times scaled by how much faster the sampling loop of
    ``speed.py`` ran on the reference host than during each phase."""
    setup, timed, warm = (REFERENCE_SAMPLE_S / rep["speed_s"][phase]
                          for phase in ("setup", "timed", "warm"))
    return {
        "setup_s": rep["setup_s"] * setup,
        "wall_s": rep["wall_s"] * timed,
        "cpu_s": rep["cpu_s"] * timed,
        "warm_s": [s * warm for s in rep["warm_s"]],
    }


def end_to_end(reps: list) -> dict:
    """Medians over the run's repetitions, at the reference speed."""
    scaled = [_at_reference_speed(rep) for rep in reps]
    values = {name: _median(scaled, name) for name in ("setup_s", "wall_s", "cpu_s")}
    values["peak_rss_mb"] = _median(reps, "peak_rss_mb")
    values["reverify_s"] = statistics.median(s for rep in scaled for s in rep["warm_s"])
    values["programs_per_s"] = _median(reps, "programs") / values["wall_s"]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer(reps: list) -> tuple:
    """Per-layer medians over the traced reps, and which repeated exactly."""
    from layers import METRICS

    traced = [rep["layers"] for rep in reps if rep["mode"] == "traced"]
    plain = [rep for rep in reps if rep["mode"] == "plain"]
    overhead = _median([r for r in reps if r["mode"] == "traced"], "wall_s") - _median(plain, "wall_s")
    metrics, exact = {}, []
    for name, unit in METRICS.items():
        if name == "trace_overhead_s":
            value = overhead
        else:
            samples = [layers[name] for layers in traced]
            value = statistics.median(samples)
            if unit != "s" and len(set(samples)) == 1:
                exact.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, exact


def _source_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(reps: list) -> dict:
    measured = reps[0]
    return {
        "commit": _commit(),
        "source_digest": _source_digest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": measured["numpy"],
        "backend": measured["backend"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2

    os.makedirs(WORKDIR, exist_ok=True)
    try:
        reps = _run_reps(args.workload, args.seed, args.scale, args.seconds, bool(args.trace))
    except BenchmarkError as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORKDIR)  # each repetition removed its own directory

    problems = sorted({problem for rep in reps for problem in rep["problems"]})
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    envelopes = sorted({rep["envelope"] for rep in reps})
    if len(envelopes) > 1:
        problems.append(f"one seed gave {len(envelopes)} different outputs")
        failed += 1
    if args.trace:
        metrics, exact = per_layer(reps)
    else:
        metrics, exact = end_to_end(reps), []
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "environment": environment(reps),
        "failed_ratio": failed / attempted,
        "problems": problems,
        "exact_counts": exact,
        "reps": reps,
    }
    print("record " + json.dumps(record, sort_keys=True))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
