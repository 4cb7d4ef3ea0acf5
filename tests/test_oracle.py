import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontierfuzz import builtin_targets
from frontierfuzz.oracle import (
    AbstractInstance,
    check_enumerable,
    expected_coverage,
    greedy_schedule,
    verify,
)
from frontierfuzz.target import Harness, program_from_dict
from reference import ConvexityStats, convexity_probe


def inst(probs, stages):
    return AbstractInstance(tuple(Fraction(p) for p in probs), stages)


class TestExpectedCoverage:
    def test_two_distinct_branches(self):
        instance = inst([Fraction(9, 10), Fraction(1, 2)], 2)
        assert expected_coverage(instance, (0, 1)) == Fraction(14, 10)

    def test_repeat_choice_compounds(self):
        instance = inst([Fraction(9, 10)], 2)
        assert expected_coverage(instance, (0, 0)) == Fraction(99, 100)

    def test_zero_probabilities(self):
        instance = inst([0, 0], 3)
        for schedule in itertools.product(range(2), repeat=3):
            assert expected_coverage(instance, schedule) == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            expected_coverage(inst([Fraction(1, 2)], 2), (0,))

    def test_out_of_range_choice_rejected(self):
        with pytest.raises(ValueError, match="range"):
            expected_coverage(inst([Fraction(1, 2)], 1), (3,))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_order_invariance(self, data):
        m = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, 6))
        probs = [Fraction(data.draw(st.integers(0, 10)), 10) for _ in range(m)]
        schedule = [data.draw(st.integers(0, m - 1)) for _ in range(k)]
        instance = inst(probs, k)
        base = expected_coverage(instance, schedule)
        shuffled = list(schedule)
        random.Random(data.draw(st.integers(0, 100))).shuffle(shuffled)
        assert expected_coverage(instance, shuffled) == base


class TestGreedySchedule:
    def test_marginal_comparison_switches_branch(self):
        # After one pick of the 0.9 branch its marginal drops to 0.09,
        # so the 0.5 branch takes the second stage.
        instance = inst([Fraction(9, 10), Fraction(1, 2)], 2)
        assert greedy_schedule(instance) == (0, 1)
        assert expected_coverage(instance, (0, 1)) == Fraction(14, 10)

    def test_single_branch_repeats(self):
        instance = inst([Fraction(1, 2)], 3)
        assert greedy_schedule(instance) == (0, 0, 0)
        assert expected_coverage(instance, (0, 0, 0)) == Fraction(7, 8)

    def test_zero_stages(self):
        assert greedy_schedule(inst([Fraction(1, 2)], 0)) == ()

    def test_ties_break_to_lowest_index(self):
        instance = inst([Fraction(1, 2), Fraction(1, 2)], 1)
        assert greedy_schedule(instance) == (0,)

    def test_monotone_in_stages(self):
        probs = [Fraction(3, 10), Fraction(7, 10), Fraction(1, 10)]
        values = [
            expected_coverage(inst(probs, k), greedy_schedule(inst(probs, k)))
            for k in range(7)
        ]
        assert values == sorted(values)


class TestVerify:
    def test_two_branch_instance_optimal(self):
        result = verify(inst([Fraction(9, 10), Fraction(1, 2)], 2))
        assert result.optimal
        assert result.greedy_value == result.optimum_value == Fraction(14, 10)

    def test_single_branch_always_optimal(self):
        assert verify(inst([Fraction(3, 10)], 5)).optimal

    def test_probability_bounds_validated(self):
        with pytest.raises(ValueError, match="outside"):
            inst([Fraction(3, 2)], 1)

    @pytest.mark.parametrize("probs,stages,why", [
        ([], 1, "at least one branch"), ([Fraction(1, 2)], -1, "stages must be >= 0")])
    def test_empty_or_negative_instance_rejected(self, probs, stages, why):
        with pytest.raises(ValueError, match=why):
            inst(probs, stages)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            verify(inst([Fraction(1, 2)] * 5, 11))

    @pytest.mark.parametrize("branches,stages,ok", [
        (10, 7, True), (2, 23, True), (1, 10 ** 9, True),
        (2, 24, False), (10 ** 7 + 1, 1, False), (2, 10 ** 9, False),
    ])
    def test_enumeration_limit_boundary(self, branches, stages, ok):
        if ok:
            check_enumerable(branches, stages)
        else:
            with pytest.raises(ValueError, match="too large"):
                check_enumerable(branches, stages)

    def test_random_grid_instances_all_optimal(self):
        rng = random.Random(0)
        for _ in range(60):
            m = rng.randint(1, 4)
            k = rng.randint(1, 6)
            probs = [Fraction(rng.randint(0, 10), 10) for _ in range(m)]
            result = verify(inst(probs, k))
            assert result.optimal, (probs, k)

    def test_optimum_matches_sequence_enumeration(self):
        # Oracle: brute force over all m**K ordered schedules.
        rng = random.Random(1)
        for _ in range(20):
            m = rng.randint(1, 3)
            k = rng.randint(1, 4)
            probs = [Fraction(rng.randint(0, 10), 10) for _ in range(m)]
            instance = inst(probs, k)
            brute = max(
                expected_coverage(instance, schedule)
                for schedule in itertools.product(range(m), repeat=k)
            )
            assert verify(instance).optimum_value == brute


def xor_gate_program():
    # Child guard reachable only when the first two bytes xor to 0x10:
    # a non-convex reach set for midpoint probing.
    doc = {
        "max_input_len": 4,
        "entry": 0,
        "nodes": [
            {"id": 0, "kind": "xor", "offset": 0, "length": 2, "relation": "eq",
             "constant": 0x10, "taken": 1, "nottaken": None},
            {"id": 1, "kind": "int", "offset": 2, "width": 1, "endian": "le",
             "signed": False, "relation": "le", "constant": 15,
             "taken": None, "nottaken": None},
        ],
    }
    return program_from_dict(doc)


class TestConvexityProbe:
    def test_linear_guard_passes_with_equality(self):
        program = builtin_targets.load("le15")
        harness = Harness(program, synthetic_time=True)
        # Distances 4 and 8 around the boundary: the midpoint sits at 6.
        assert convexity_probe(harness, 0, bytes([12]), bytes([8])) is True

    def test_non_convex_pair_fails(self):
        program = builtin_targets.load("xor_guard")
        harness = Harness(program, synthetic_time=True)
        # Both endpoints xor to the constant; their midpoint xors to zero.
        x1 = bytes([0x40, 0x1D]) + bytes(6)
        x2 = bytes([0x1D, 0x40]) + bytes(6)
        stats = ConvexityStats()
        assert convexity_probe(harness, 0, x1, x2, stats) is False
        assert stats.fails[0] == 1

    def test_midpoint_missing_site_is_non_probe(self):
        program = xor_gate_program()
        harness = Harness(program, synthetic_time=True)
        x1 = bytes([0x10, 0x00, 5, 0])
        x2 = bytes([0x00, 0x10, 5, 0])
        stats = ConvexityStats()
        assert convexity_probe(harness, 1, x1, x2, stats) is None
        assert stats.non_probes[1] == 1

    def test_unequal_lengths_rejected(self):
        program = builtin_targets.load("le15")
        harness = Harness(program, synthetic_time=True)
        with pytest.raises(ValueError, match="equal-length"):
            convexity_probe(harness, 0, bytes(1), bytes(2))

    def test_xor_sampled_ratio_below_one(self):
        program = builtin_targets.load("xor_guard")
        harness = Harness(program, synthetic_time=True)
        rng = random.Random(0)
        stats = ConvexityStats()
        for _ in range(100):
            x1 = bytes(rng.randrange(256) for _ in range(8))
            x2 = bytes(rng.randrange(256) for _ in range(8))
            convexity_probe(harness, 0, x1, x2, stats)
        assert stats.ratio(0) < 1.0

    def test_probe_restores_active_sites(self):
        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        harness.switch_on({1, 2})
        convexity_probe(harness, 0, bytes(6), bytes([3, 0, 0, 0, 0, 0]))
        assert harness.active_sites == {1, 2}
        # The saved sites observe again, and the probed one no longer does.
        trace = harness.execute(bytes([1, 2, 4, 8, 16, 32]))
        assert list(trace.observations) == [1, 2]
