import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontierfuzz.distance import BranchDistance
from frontierfuzz.scheduling import SchedulerState, StaleSiteError


def d(v):
    return BranchDistance((v,))


class TestRecordExecution:
    def test_first_reach_is_productive(self):
        state = SchedulerState()
        assert state.record_execution(0, b"s", d(11), 100, {0}) is True
        stats = state.stats[0]
        assert (stats.pt, stats.tt) == (100, 100)

    def test_non_lowering_reach_only_grows_total(self):
        state = SchedulerState()
        state.record_execution(0, b"s", d(11), 100, {0})
        assert state.record_execution(0, b"t", d(11), 50, {0}) is False
        stats = state.stats[0]
        assert (stats.pt, stats.tt) == (100, 150)

    def test_lowering_reach_grows_both(self):
        state = SchedulerState()
        state.record_execution(0, b"s", d(11), 100, {0})
        state.record_execution(0, b"t", d(11), 50, {0})
        assert state.record_execution(0, b"u", d(9), 50, {0}) is True
        stats = state.stats[0]
        assert (stats.pt, stats.tt) == (150, 200)
        assert stats.best_input == b"u"

    def test_stale_site_rejected(self):
        state = SchedulerState()
        with pytest.raises(StaleSiteError):
            state.record_execution(3, b"s", d(1), 1, frontier={0, 1})

    def test_clocks_monotone(self):
        state = SchedulerState()
        state.record_execution(0, b"s", d(5), 10, {0})
        prev = (0, 0)
        for i, dist in enumerate((7, 4, 4, 2)):
            state.record_execution(0, bytes([i]), d(dist), 10, {0})
            stats = state.stats[0]
            assert stats.pt >= prev[0] and stats.tt > prev[1]
            assert stats.pt <= stats.tt
            prev = (stats.pt, stats.tt)


class TestDistanceMinimum:
    """``record_execution`` keeps each site's distance minimum and the input
    that first achieved it."""

    @staticmethod
    def record(state, data, dist):
        return state.record_execution(0, data, dist, 1, {0})

    def test_first_observation_lowers(self):
        state = SchedulerState()
        assert self.record(state, b"a", BranchDistance((11,))) is True
        assert state.stats[0].best == 11
        assert state.stats[0].best_input == b"a"

    def test_strictly_lower_replaces(self):
        state = SchedulerState()
        self.record(state, b"a", BranchDistance((11,)))
        assert self.record(state, b"b", BranchDistance((9,))) is True
        assert state.stats[0].best == 9
        assert state.stats[0].best_input == b"b"

    def test_tie_keeps_earlier(self):
        state = SchedulerState()
        self.record(state, b"a", BranchDistance((9,)))
        assert self.record(state, b"b", BranchDistance((9,))) is False
        assert state.stats[0].best_input == b"a"

    def test_form_mismatch_rejected(self):
        state = SchedulerState()
        self.record(state, b"a", BranchDistance((9,)))
        stats = state.stats[0]
        before = (stats.pt, stats.tt)
        with pytest.raises(ValueError, match="form"):
            self.record(state, b"b", BranchDistance((9, 1), is_vector=True))
        assert (stats.pt, stats.tt) == before
        assert (stats.best, stats.best_input) == (9, b"a")

    def test_vector_order_l1_then_lexicographic(self):
        state = SchedulerState()
        self.record(state, b"a", BranchDistance((3, 3), is_vector=True))
        # Same L1 norm: lexicographic tie-break, (2, 4) < (3, 3).
        assert self.record(state, b"b", BranchDistance((2, 4), is_vector=True)) is True
        # Lower L1 always wins.
        assert self.record(state, b"c", BranchDistance((5, 0), is_vector=True)) is True
        assert state.stats[0].best_input == b"c"

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
            min_size=1,
            max_size=10,
        )
    )
    def test_vector_minimum_matches_sorted_order(self, vectors):
        # Oracle: brute-force minimum under the (L1, lexicographic) key; the
        # earliest of equal vectors keeps the record.
        state = SchedulerState()
        for i, v in enumerate(vectors):
            self.record(state, bytes([i]), BranchDistance(v, is_vector=True))
        expected = min(vectors, key=lambda v: (abs(v[0]) + abs(v[1]), v))
        assert state.stats[0].best == (abs(expected[0]) + abs(expected[1]), expected)
        assert state.stats[0].best_input == bytes([vectors.index(expected)])


class TestSelectNext:
    def setup_branch(self, state, site, seed, pt, tt):
        state.record_execution(site, seed, d(10), pt, {site})
        if tt > pt:
            state.record_execution(site, seed, d(10), tt - pt, {site})

    def test_higher_ratio_wins(self):
        state = SchedulerState()
        self.setup_branch(state, 1, b"a", 4, 10)
        self.setup_branch(state, 2, b"b", 1, 2)
        sel = state.select_next({1, 2})
        assert sel.branch == 2  # 1/2 beats 4/10
        assert sel.seed == b"b"

    def test_discount_breaks_equal_ratios(self):
        state = SchedulerState()
        self.setup_branch(state, 1, b"a", 1, 2)
        self.setup_branch(state, 2, b"b", 1, 2)
        state.sc[b"a"] = 2
        assert state.select_next({1, 2}).branch == 2

    def test_singleton_frontier(self):
        state = SchedulerState()
        self.setup_branch(state, 7, b"a", 1, 100)
        assert state.select_next({7}).branch == 7

    def test_tie_breaks_to_lowest_id(self):
        state = SchedulerState()
        self.setup_branch(state, 5, b"a", 1, 2)
        self.setup_branch(state, 3, b"b", 1, 2)
        assert state.select_next({3, 5}).branch == 3

    def test_winner_schedule_count_increments(self):
        state = SchedulerState()
        self.setup_branch(state, 1, b"a", 1, 2)
        sel = state.select_next({1})
        assert sel.sc == 1
        assert state.sc[b"a"] == 2
        assert state.select_next({1}).sc == 2

    def test_empty_frontier_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SchedulerState().select_next(frozenset())

    def test_unreached_frontier_branch_rejected(self):
        state = SchedulerState()
        self.setup_branch(state, 1, b"a", 1, 2)
        with pytest.raises(StaleSiteError):
            state.select_next({1, 2})

    def test_logprob_matches_score(self):
        state = SchedulerState()
        self.setup_branch(state, 1, b"a", 4, 10)
        sel = state.select_next({1})
        assert sel.logprob == pytest.approx(math.log(4) - math.log(10) - math.log(1))

    def test_all_branches_scheduled_within_ten_stages(self):
        # Three branches with distinct ratios and distinct top seeds: the
        # schedule-count discount must cycle through all of them.
        state = SchedulerState()
        self.setup_branch(state, 1, b"a", 1, 2)
        self.setup_branch(state, 2, b"b", 1, 2)
        self.setup_branch(state, 3, b"c", 1, 4)
        seen = {state.select_next({1, 2, 3}).branch for _ in range(10)}
        assert seen == {1, 2, 3}


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 100), st.integers(0, 100), st.integers(1, 5)),
        min_size=1,
        max_size=6,
    )
)
def test_argmax_agrees_with_naive_rational_comparison(branches):
    # Independent oracle: explicit Fraction maximum with the same tie-break,
    # computed without touching the scheduler internals.
    state = SchedulerState()
    frontier = set()
    expected_scores = {}
    for site, (pt, extra_tt, sc) in enumerate(branches):
        seed = bytes([site])
        state.record_execution(site, seed, d(10), pt, {site})
        if extra_tt:
            state.record_execution(site, seed, d(10), extra_tt, {site})
        state.sc[seed] = sc
        frontier.add(site)
        expected_scores[site] = Fraction(pt, (pt + extra_tt) * sc)
    best_score = max(expected_scores.values())
    expected = min(s for s, v in expected_scores.items() if v == best_score)
    assert state.select_next(frontier).branch == expected
