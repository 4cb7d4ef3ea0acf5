import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_executor
from frontierfuzz import builtin_targets
from frontierfuzz.coverage import CoverageMap, recompute_frontier
from frontierfuzz.target import Harness


def fresh(name):
    program = builtin_targets.load(name)
    return program, CoverageMap(program), Harness(program, synthetic_time=True)


ALL_TAKEN = bytes([1, 2, 4, 8, 16, 32])


class TestAbsorb:
    def test_first_trace_counts_new_edges(self):
        _, cov, harness = fresh("le15")
        trace = harness.execute(bytes([5]))
        assert cov.absorb_trace(trace) == 1
        assert cov.edge_hits == {0}

    def test_replay_is_idempotent(self):
        _, cov, harness = fresh("le15")
        trace = harness.execute(bytes([5]))
        cov.absorb_trace(trace)
        assert cov.absorb_trace(trace) == 0

    def test_opposite_edges_accumulate(self):
        # Exhaustive over the two root outcomes of the nested chain: the two
        # traces exercise the two distinct root edges.
        _, cov, harness = fresh("chain6")
        total = cov.absorb_trace(harness.execute(bytes(6)))
        total += cov.absorb_trace(harness.execute(ALL_TAKEN))
        assert {0, 1} <= cov.edge_hits
        assert total == len(cov.edge_hits)

    def test_unknown_edge_rejected(self):
        from frontierfuzz.target import ExecutionTrace

        _, cov, _ = fresh("le15")
        with pytest.raises(ValueError, match="unknown edge"):
            cov.absorb_trace(ExecutionTrace((99,), (), 1))

    def test_monotone_bits_never_clear(self):
        _, cov, harness = fresh("chain6")
        cov.absorb_trace(harness.execute(ALL_TAKEN))
        snapshot = set(cov.edge_hits)
        cov.absorb_trace(harness.execute(bytes(6)))
        assert snapshot <= cov.edge_hits


class TestFrontier:
    def test_one_edge_seen_makes_frontier(self):
        _, cov, harness = fresh("le15")
        cov.absorb_trace(harness.execute(bytes([5])))
        assert recompute_frontier(cov) == {0}

    def test_both_edges_seen_retires(self):
        _, cov, harness = fresh("le15")
        cov.absorb_trace(harness.execute(bytes([5])))
        cov.absorb_trace(harness.execute(bytes([16])))
        assert recompute_frontier(cov) == frozenset()

    def test_all_taken_chain_makes_every_node_frontier(self):
        # Only the all-taken path is seen, so every node misses its
        # not-taken edge.
        _, cov, harness = fresh("chain6")
        cov.absorb_trace(harness.execute(ALL_TAKEN))
        assert recompute_frontier(cov) == frozenset(range(6))

    def test_flip_retires_branch_and_reveals_children(self):
        _, cov, harness = fresh("chain6")
        cov.absorb_trace(harness.execute(bytes(6)))
        assert recompute_frontier(cov) == {0}
        cov.absorb_trace(harness.execute(bytes([1, 0, 0, 0, 0, 0])))
        assert recompute_frontier(cov) == {1}

    def test_frontier_bounded_by_visited(self):
        _, cov, harness = fresh("mixed_tree")
        for data in (bytes(8), bytes([0xE8, 0x03]) + bytes(6)):
            cov.absorb_trace(harness.execute(data))
            assert len(recompute_frontier(cov)) <= len(cov.node_visited)

    def test_bug_node_never_frontier(self):
        _, cov, harness = fresh("bug_chain")
        cov.absorb_trace(harness.execute(b"\xad\xde\x80"))
        assert 2 in cov.node_visited
        assert 2 not in recompute_frontier(cov)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(max_size=6), max_size=12))
def test_incremental_frontier_matches_pure_recompute(inputs):
    program = builtin_targets.load("chain6")
    cov = CoverageMap(program)
    harness = Harness(program, synthetic_time=True)
    for data in inputs:
        cov.absorb_trace(harness.execute(data))
        assert frozenset(cov.frontier) == recompute_frontier(cov)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(max_size=8), max_size=12))
def test_incremental_frontier_matches_on_tree(inputs):
    program = builtin_targets.load("mixed_tree")
    cov = CoverageMap(program)
    harness = Harness(program, synthetic_time=True)
    for data in inputs:
        cov.absorb_trace(harness.execute(data))
        assert frozenset(cov.frontier) == recompute_frontier(cov)


@pytest.mark.parametrize("name,max_len", [("chain6", 6), ("mixed_tree", 8)])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_flips_match_brute_force_count(name, max_len, data):
    # A flip is an edge first covered by this exec whose source node was a
    # frontier branch before it.
    program = builtin_targets.load(name)
    executor = make_executor(program)
    cov = executor.coverage
    total = 0
    for x in data.draw(st.lists(st.binary(max_size=max_len), max_size=12)):
        before_hits = set(cov.edge_hits)
        before_frontier = recompute_frontier(cov)
        edges = executor.harness.execute(x).edges
        expected = sum(1 for e in edges if e not in before_hits and e >> 1 in before_frontier)
        outcome = executor.run(x)
        assert outcome.flips == expected
        total += expected
        assert executor.flips == total
