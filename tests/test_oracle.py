import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontierfuzz.oracle import (
    AbstractInstance,
    check_enumerable,
    expected_coverage,
    greedy_schedule,
    verify,
)


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
