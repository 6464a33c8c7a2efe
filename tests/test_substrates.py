"""Tests for the simulated substrates (search, parallel races, approximate memory)."""

import pytest

from repro.substrates.approxmem import ApproximateMemory, ApproxMemoryChooser, ErrorModel
from repro.substrates.parallel import (
    RacyArrayChooser,
    RacyReductionSimulator,
    Update,
    generate_reduction_workload,
)
from repro.substrates.search import (
    DynamicKnobChooser,
    DynamicKnobController,
    LoadModel,
    generate_query_results,
    result_quality,
)
from repro.substrates.workloads import (
    generate_lu_workloads,
    generate_matrix,
    generate_swish_workloads,
    generate_water_workloads,
)
from repro.lang.parser import parse_statement
from repro.semantics.state import State


class TestApproximateMemory:
    def test_exact_when_error_model_is_trivial(self):
        memory = ApproximateMemory()
        memory.load([1, 2, 3])
        assert [memory.read(address) for address in range(3)] == [1, 2, 3]
        assert memory.max_observed_error() == 0

    def test_bounded_additive_error(self):
        memory = ApproximateMemory(error_model=ErrorModel(max_magnitude=3), seed=1)
        memory.load([100] * 50)
        observed = [memory.read(address) for address in range(50)]
        assert all(97 <= value <= 103 for value in observed)
        assert memory.max_observed_error() <= 3

    def test_bit_flips_touch_low_order_bits_only(self):
        memory = ApproximateMemory(
            error_model=ErrorModel(bit_flip_probability=1.0, flippable_bits=2), seed=0
        )
        memory.write(0, 0)
        assert 0 <= memory.read(0) <= 3

    def test_read_log_records_errors(self):
        memory = ApproximateMemory(error_model=ErrorModel(max_magnitude=1), seed=2)
        memory.write(0, 5)
        memory.read(0)
        entry = memory.read_log[0]
        assert entry["exact"] == 5
        assert abs(entry["error"]) <= 1

    def test_chooser_respects_error_bound_variable(self):
        chooser = ApproxMemoryChooser(ErrorModel(max_magnitude=10), error_bound_var="e", seed=0)
        stmt = parse_statement("relax (a) st (orig - e <= a && a <= orig + e);")
        state = State.of({"a": 50, "orig": 50, "e": 2})
        for _ in range(10):
            chosen = chooser.choose(stmt, state)
            assert 48 <= chosen.scalar("a") <= 52


class TestRacyReduction:
    def test_atomic_reference_result(self):
        simulator = RacyReductionSimulator(threads=2, seed=0)
        initial, updates = generate_reduction_workload(cells=4, updates_per_cell=3, seed=1)
        exact = simulator.exact(initial, updates)
        assert len(exact) == 4

    def test_racy_result_never_exceeds_exact_contributions(self):
        simulator = RacyReductionSimulator(threads=4, seed=3)
        initial, updates = generate_reduction_workload(cells=3, updates_per_cell=5, seed=2)
        exact = simulator.exact(initial, updates)
        racy = simulator.run(initial, updates)
        # Lost updates can only lose positive contributions, never add new ones.
        assert all(racy[i] <= exact[i] for i in range(3))

    def test_races_actually_lose_updates_sometimes(self):
        lost_totals = 0
        for seed in range(8):
            simulator = RacyReductionSimulator(threads=4, seed=seed)
            initial, updates = generate_reduction_workload(cells=2, updates_per_cell=8, seed=seed)
            simulator.run(initial, updates)
            lost_totals += simulator.lost_updates
        assert lost_totals > 0

    def test_single_thread_is_exact(self):
        simulator = RacyReductionSimulator(threads=1, seed=0)
        initial, updates = generate_reduction_workload(cells=3, updates_per_cell=4, seed=5)
        assert simulator.run(initial, updates) == simulator.exact(initial, updates)

    def test_lost_updates_by_thread_count(self):
        """Section 5.2's accuracy cost of lock elision: one thread loses no
        update, contention appears only from two threads on."""
        initial, updates = generate_reduction_workload(cells=8, updates_per_cell=24, seed=5)
        lost = {}
        for threads in (1, 2, 4, 8):
            simulator = RacyReductionSimulator(threads=threads, seed=29)
            simulator.run(initial, updates)
            lost[threads] = simulator.lost_updates
        assert lost[1] == 0
        assert any(lost[threads] > 0 for threads in (2, 4, 8))
        initial, updates = generate_reduction_workload(cells=16, updates_per_cell=32, seed=1)
        assert len(RacyReductionSimulator(threads=4, seed=7).run(initial, updates)) == 16

    def test_racy_array_chooser_updates_array(self):
        chooser = RacyArrayChooser(array_name="RS", threads=4, seed=1)
        stmt = parse_statement("relax (RS) st (true);")
        state = State.of({}, arrays={"RS": {0: 5, 1: 3}})
        chosen = chooser.choose(stmt, state)
        values = chosen.array("RS")
        assert set(values) == {0, 1}
        assert all(values[i] <= {0: 5, 1: 3}[i] for i in values)


class TestSearchSubstrate:
    def test_query_results_are_sorted_by_score(self):
        results = generate_query_results(20, seed=1)
        scores = [result.score for result in results]
        assert scores == sorted(scores, reverse=True)

    def test_result_quality_monotone_in_presented(self):
        results = generate_query_results(30, seed=2)
        qualities = [result_quality(results, presented) for presented in (5, 10, 30)]
        assert qualities[0] <= qualities[1] <= qualities[2]
        assert qualities[2] == pytest.approx(1.0)

    def test_top10_preserves_most_quality(self):
        results = generate_query_results(50, seed=3)
        assert result_quality(results, 10) > 0.5

    def test_controller_keeps_small_requests(self):
        controller = DynamicKnobController(minimum_results=10)
        assert controller.knob(7, load=100.0) == 7

    def test_controller_clamps_under_load_but_not_below_floor(self):
        controller = DynamicKnobController(minimum_results=10, high_load_threshold=2.0)
        assert controller.knob(50, load=0.0) == 50
        assert controller.knob(50, load=10.0) >= 10

    def test_load_model_is_seeded(self):
        first = [LoadModel(seed=4).step() for _ in range(5)]
        second = [LoadModel(seed=4).step() for _ in range(5)]
        assert first == second

    def test_knob_chooser_respects_paper_constraint(self):
        chooser = DynamicKnobChooser(seed=0)
        stmt = parse_statement(
            "relax (max_r) st ((original_max_r <= 10 && max_r == original_max_r) "
            "|| (10 < original_max_r && 10 <= max_r));"
        )
        for requested in (5, 15, 40):
            state = State.of({"max_r": requested, "original_max_r": requested})
            chosen = chooser.choose(stmt, state)
            if requested <= 10:
                assert chosen.scalar("max_r") == requested
            else:
                assert chosen.scalar("max_r") >= 10


class TestWorkloadGenerators:
    def test_swish_workloads_cover_regimes(self):
        workloads = generate_swish_workloads(30, seed=0)
        assert any(w.num_results < 10 for w in workloads)
        assert any(w.num_results >= 26 for w in workloads)

    def test_water_workloads_length_consistency(self):
        for workload in generate_water_workloads(10, molecules=6, seed=1):
            assert len(workload.interactions) == 6
            assert workload.array_length >= 6

    def test_lu_workloads_error_bounds_cycle(self):
        bounds = {w.error_bound for w in generate_lu_workloads(10, seed=2)}
        assert bounds == {0, 1, 2, 4, 8}

    def test_matrix_generator_shape(self):
        matrix = generate_matrix(5, seed=3)
        assert len(matrix) == 5 and all(len(row) == 5 for row in matrix)

    def test_generators_are_deterministic(self):
        assert generate_swish_workloads(5, seed=9) == generate_swish_workloads(5, seed=9)
        assert generate_lu_workloads(5, seed=9) == generate_lu_workloads(5, seed=9)
