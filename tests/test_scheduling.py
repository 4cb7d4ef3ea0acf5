import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontierfuzz.scheduling import SchedulerState, StaleSiteError
import reference


def vec(*values):
    """The order key of a vector distance: its L1 norm, then its values."""
    return (sum(map(abs, values)), values)


class TestRecordExecution:
    def test_first_reach_is_productive(self):
        state = SchedulerState()
        assert state.record_execution(b"s", {0: 11}, 100, {0}) == 1
        stats = state.stats[0]
        assert (stats.pt, stats.tt) == (100, 100)

    def test_non_lowering_reach_only_grows_total(self):
        state = SchedulerState()
        state.record_execution(b"s", {0: 11}, 100, {0})
        assert state.record_execution(b"t", {0: 11}, 50, {0}) == 0
        stats = state.stats[0]
        assert (stats.pt, stats.tt) == (100, 150)

    def test_lowering_reach_grows_both(self):
        state = SchedulerState()
        state.record_execution(b"s", {0: 11}, 100, {0})
        state.record_execution(b"t", {0: 11}, 50, {0})
        assert state.record_execution(b"u", {0: 9}, 50, {0}) == 1
        stats = state.stats[0]
        assert (stats.pt, stats.tt) == (150, 200)
        assert stats.best_input == b"u"

    def test_stale_site_skipped(self):
        # A site off the frontier is skipped: no stats, no clock moves.
        state = SchedulerState()
        assert state.record_execution(b"s", {3: 1}, 1, frontier={0, 1}) == 0
        assert state.stats == {}
        state.record_execution(b"s", {0: 5}, 1, {0, 1})
        assert state.record_execution(b"t", {3: 1, 0: 5}, 7, frontier={0, 1}) == 0
        assert 3 not in state.stats
        assert (state.stats[0].pt, state.stats[0].tt) == (1, 8)

    def test_counts_every_lowered_site(self):
        state = SchedulerState()
        observations = {0: 4, 1: vec(2, 1), 2: 7}
        assert state.record_execution(b"s", observations, 3, {0, 1, 2}) == 3
        assert state.record_execution(b"t", {0: 3, 1: vec(2, 1), 2: 6}, 3, {0, 1, 2}) == 2
        assert [state.stats[s].best_input for s in (0, 1, 2)] == [b"t", b"s", b"t"]

    def test_clocks_monotone(self):
        state = SchedulerState()
        state.record_execution(b"s", {0: 5}, 10, {0})
        prev = (0, 0)
        for i, dist in enumerate((7, 4, 4, 2)):
            state.record_execution(bytes([i]), {0: dist}, 10, {0})
            stats = state.stats[0]
            assert stats.pt >= prev[0] and stats.tt > prev[1]
            assert stats.pt <= stats.tt
            prev = (stats.pt, stats.tt)


class TestDistanceMinimum:
    """``record_execution`` keeps each site's distance minimum and the input
    that first achieved it."""

    @staticmethod
    def record(state, data, key):
        return state.record_execution(data, {0: key}, 1, {0})

    def test_first_observation_lowers(self):
        state = SchedulerState()
        assert self.record(state, b"a", 11) == 1
        assert state.stats[0].best == 11
        assert state.stats[0].best_input == b"a"

    def test_strictly_lower_replaces(self):
        state = SchedulerState()
        self.record(state, b"a", 11)
        assert self.record(state, b"b", 9) == 1
        assert state.stats[0].best == 9
        assert state.stats[0].best_input == b"b"

    def test_tie_keeps_earlier(self):
        state = SchedulerState()
        self.record(state, b"a", 9)
        assert self.record(state, b"b", 9) == 0
        assert state.stats[0].best_input == b"a"

    def test_form_mismatch_rejected(self):
        state = SchedulerState()
        self.record(state, b"a", 9)
        stats = state.stats[0]
        before = (stats.pt, stats.tt)
        with pytest.raises(ValueError, match="form"):
            self.record(state, b"b", vec(9, 1))
        assert (stats.pt, stats.tt) == before
        assert (stats.best, stats.best_input) == (9, b"a")

    def test_form_mismatch_rejected_against_vector(self):
        # A scalar key whose value sits below the stored L1 norm still raises.
        state = SchedulerState()
        self.record(state, b"a", vec(9, 1))
        stats = state.stats[0]
        before = (stats.pt, stats.tt)
        with pytest.raises(ValueError, match="form"):
            self.record(state, b"b", 0)
        assert (stats.pt, stats.tt) == before
        assert (stats.best, stats.best_input) == (vec(9, 1), b"a")

    def test_vector_order_l1_then_lexicographic(self):
        state = SchedulerState()
        self.record(state, b"a", vec(3, 3))
        # Same L1 norm: lexicographic tie-break, (2, 4) < (3, 3).
        assert self.record(state, b"b", vec(2, 4)) == 1
        # Lower L1 always wins.
        assert self.record(state, b"c", vec(5, 0)) == 1
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
            self.record(state, bytes([i]), vec(*v))
        expected = min(vectors, key=lambda v: (abs(v[0]) + abs(v[1]), v))
        assert state.stats[0].best == (abs(expected[0]) + abs(expected[1]), expected)
        assert state.stats[0].best_input == bytes([vectors.index(expected)])


_SITES = range(6)
_VECTORS = st.lists(st.integers(-4, 4), min_size=1, max_size=3).map(lambda v: vec(*v))


@st.composite
def _fold_calls(draw):
    """A sequence of (data, observations, exec_time, frontier) calls.  Each
    site keeps one key form, bar a rare mismatch; the maps hold sites off
    the frontier."""
    vector = draw(st.lists(st.booleans(), min_size=6, max_size=6))
    calls = []
    for _ in range(draw(st.integers(1, 12))):
        observations = {}
        for site in draw(st.lists(st.sampled_from(_SITES), unique=True, max_size=6)):
            mismatch = draw(st.integers(0, 30)) == 0
            keys = _VECTORS if vector[site] != mismatch else st.integers(-8, 8)
            observations[site] = draw(keys)
        calls.append((draw(st.binary(max_size=2)), observations,
                      draw(st.integers(1, 1000)), draw(st.frozensets(st.sampled_from(_SITES)))))
    return calls


class TestFoldAgainstPerSiteReference:
    @settings(max_examples=200, deadline=None)
    @given(_fold_calls())
    def test_same_stats_and_lowered_count(self, calls):
        got, want = SchedulerState(), {}
        for call in calls:
            results = []
            for fold in (got.record_execution, lambda *args: reference.fold(want, *args)):
                try:
                    results.append(fold(*call))
                except ValueError as exc:
                    results.append(exc.__class__)
            assert results[0] == results[1]
            # best, best_input, pt and tt per site
            assert got.stats == want


class TestSelectNext:
    def setup_branch(self, state, site, seed, pt, tt):
        state.record_execution(seed, {site: 10}, pt, {site})
        if tt > pt:
            state.record_execution(seed, {site: 10}, tt - pt, {site})

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
        state.record_execution(seed, {site: 10}, pt, {site})
        if extra_tt:
            state.record_execution(seed, {site: 10}, extra_tt, {site})
        state.sc[seed] = sc
        frontier.add(site)
        expected_scores[site] = Fraction(pt, (pt + extra_tt) * sc)
    best_score = max(expected_scores.values())
    expected = min(s for s, v in expected_scores.items() if v == best_score)
    assert state.select_next(frontier).branch == expected
