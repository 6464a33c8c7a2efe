"""One repetition of one workload, in the fresh interpreter it is started in.

Usage (``run.py`` starts it with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/rep.py --workload NAME --seed N --scale full \
        --mode plain|traced --workdir DIR

``plain`` builds the inputs, runs the timed phase, the warm passes and the
checks, sampling the host's speed (``speed.py``) until the checks start;
``traced`` does the same without the sampling, with the layer wrappers of
``layers.py`` installed around everything after the imports, and a fixed
number of warm passes.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import pkgutil
import resource
import sys
import time

from speed import SpeedSampler


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _import_everything() -> None:
    """Import every ``repro`` module, so wrappers reach each ``from`` import."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, args.workdir)
    tracer = None
    installed = contextlib.nullcontext()
    if args.mode == "traced":
        from layers import TARGETS
        from tracer import Tracer

        _import_everything()
        tracer = Tracer()
        installed = tracer.installed(TARGETS)
        workload.unmeasured = tracer.paused
        workload.warm_seconds = 0.0

    # Plain repetitions sample the host's speed; traced ones leave the
    # layers' self times undisturbed.
    sampler = SpeedSampler()
    sampling = sampler.running() if tracer is None else contextlib.nullcontext()
    clock = workload.clock = sampler.clock

    with installed, sampling:
        setup_start = traced_start = clock()
        workload.setup()
        # ``run.py`` subtracts the interpreter's start from this.
        result = {"ready": time.monotonic() - sampler.spent}
        cpu_start, wall_start, spent = _cpu_s(), clock(), sampler.spent
        workload.run()
        result["wall_s"] = clock() - wall_start
        result["cpu_s"] = _cpu_s() - cpu_start - (sampler.spent - spent)
        warm_start = clock()
        warm = workload.reverify()
        warm_end = clock()
        traced_wall_s = warm_end - traced_start
    result["speed_s"] = {
        "setup": sampler.mean_s(setup_start, wall_start),
        "timed": sampler.mean_s(wall_start, warm_start),
        "warm": sampler.mean_s(warm_start, warm_end),
    }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    from repro.solver.backend import active_backend

    outcome = workload.check()
    result.update(
        warm_s=warm,
        programs=workload.programs,
        attempted=outcome.attempted,
        failed=outcome.failed,
        problems=outcome.problems,
        envelope=outcome.envelope,
        backend=active_backend(),
        numpy=_numpy_version(),
    )
    if tracer is not None:
        from layers import layer_metrics

        result["layers"] = layer_metrics(tracer, traced_wall_s)
    print(json.dumps(result))
    return 0


def _numpy_version():
    try:
        import numpy
    except ImportError:
        return None
    return numpy.__version__


if __name__ == "__main__":
    sys.exit(main())
