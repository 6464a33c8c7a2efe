"""Self-time arithmetic and wrapper restoration of the layer tracer."""

import sys
import types

import pytest

from tracer import Target, Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def fake_module():
    """A module ``benchfake.layers`` plus a module that imported from it."""
    clock = FakeClock()
    module = types.ModuleType("benchfake.layers")
    user = types.ModuleType("benchfake.user")

    def inner(seconds):
        clock.advance(seconds)
        return seconds

    def outer():
        clock.advance(1.0)
        module.inner(2.0)
        clock.advance(0.5)
        module.inner(3.0)
        return "done"

    class Engine:
        def solve(self, seconds):
            clock.advance(0.25)
            return module.inner(seconds)

    def boom():
        raise ValueError("boom")

    module.inner, module.outer, module.Engine, module.boom = inner, outer, Engine, boom
    user.inner = inner
    sys.modules[module.__name__] = module
    sys.modules[user.__name__] = user
    try:
        yield module, user, clock
    finally:
        del sys.modules[module.__name__], sys.modules[user.__name__]


def _targets(hook=None):
    return (
        Target("benchfake.layers", "outer", "top.outer"),
        Target("benchfake.layers", "inner", "solver.inner", on_result=hook),
        Target("benchfake.layers", "Engine.solve", "engine.solve"),
        Target("benchfake.layers", "boom", "top.boom"),
    )


def test_self_time_subtracts_nested_calls(fake_module):
    module, _user, clock = fake_module
    tracer = Tracer(clock=clock)
    with tracer.installed(_targets(), scope=("benchfake",)):
        assert module.outer() == "done"
        assert module.Engine().solve(4.0) == 4.0
    assert tracer.self_s["top.outer"] == pytest.approx(1.5)
    assert tracer.self_s["solver.inner"] == pytest.approx(9.0)
    assert tracer.self_s["engine.solve"] == pytest.approx(0.25)
    assert tracer.total_self_s() == pytest.approx(clock.now)
    assert tracer.calls["inner"] == 3 and tracer.calls["Engine.solve"] == 1
    # Root solver spans are split by the layer that called them.
    assert tracer.under_s["top"] == pytest.approx(5.0)
    assert tracer.under_s["engine"] == pytest.approx(4.0)
    assert tracer.under_n["top"] == 2 and tracer.under_n["engine"] == 1


def test_wrappers_reach_from_imports_and_see_results(fake_module):
    module, user, clock = fake_module
    seen = []
    tracer = Tracer(clock=clock)
    with tracer.installed(_targets(lambda t, args, result: seen.append(result)),
                          scope=("benchfake",)):
        user.inner(1.0)
    assert tracer.calls["inner"] == 1
    assert seen == [1.0]


def test_restored_after_the_block_even_on_error(fake_module):
    module, user, clock = fake_module
    originals = (module.outer, module.inner, user.inner, module.Engine.__dict__["solve"])
    tracer = Tracer(clock=clock)
    with pytest.raises(ValueError):
        with tracer.installed(_targets(), scope=("benchfake",)):
            assert module.inner is not originals[1]
            module.boom()
    assert (module.outer, module.inner, user.inner, module.Engine.__dict__["solve"]) == originals
    # The failed call still closed its span.
    assert tracer.calls["boom"] == 1 and not tracer._stack


def test_repro_targets_install_and_restore():
    from rep import _import_everything
    from layers import TARGETS

    _import_everything()
    import repro.engine.batch as batch
    import repro.engine.scheduler as scheduler
    import repro.solver.interface as interface

    def current():
        return (batch.fingerprint, interface.to_dnf, interface.Solver.check_sat,
                scheduler.ProcessPoolExecutor)

    before = current()
    with Tracer().installed(TARGETS):
        assert all(now is not then for now, then in zip(current(), before))
    assert current() == before


def test_pools_are_counted_where_the_scheduler_opens_them():
    from rep import _import_everything
    from layers import TARGETS

    _import_everything()
    import repro.engine.scheduler as scheduler

    tracer = Tracer()
    with tracer.installed(TARGETS):
        with scheduler.ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(abs, -3).result() == 3
    assert tracer.counts["engine.pools"] == 1
