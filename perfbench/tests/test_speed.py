"""The speed sampler leaves its own time out of the clock and cleans up."""

import signal
import time

import pytest

from speed import SpeedSampler


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampling_time_is_left_out_of_the_clock():
    sampler = SpeedSampler()
    with sampler.running():
        start, raw_start = sampler.clock(), time.perf_counter()
        _busy(0.3)
        clocked, raw = sampler.clock() - start, time.perf_counter() - raw_start
    assert len(sampler.samples) >= 3
    assert sampler.spent > 0
    assert raw - clocked == pytest.approx(sampler.spent, abs=1e-3)
    assert sampler.mean_s(start, start + clocked) > 0


def test_handler_and_timer_are_restored_even_on_error():
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(RuntimeError):
        with SpeedSampler().running():
            raise RuntimeError("boom")
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_phase_without_samples_is_sampled_once():
    sampler = SpeedSampler()
    assert sampler.mean_s(0.0, 0.0) > 0
    assert sampler.samples == []
