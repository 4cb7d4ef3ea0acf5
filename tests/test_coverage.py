import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_executor
from frontierfuzz import builtin_targets
from frontierfuzz.coverage import CoverageMap
from frontierfuzz.target import GuardKind, Harness, program_from_dict
from reference import edge_endpoints, recompute_frontier
from test_target import _documents


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
        # Every frontier branch is the source of a hit edge.
        program, cov, harness = fresh("mixed_tree")
        for data in (bytes(8), bytes([0xE8, 0x03]) + bytes(6)):
            cov.absorb_trace(harness.execute(data))
            sources = {edge_endpoints(program, e)[0] for e in cov.edge_hits}
            assert recompute_frontier(cov) <= sources

    def test_bug_node_never_frontier(self):
        program, cov, harness = fresh("bug_chain")
        cov.absorb_trace(harness.execute(b"\xad\xde\x80"))
        # A hit edge ends at the bug node, so it is visited.
        assert 2 in {edge_endpoints(program, e)[1] for e in cov.edge_hits}
        assert 2 not in recompute_frontier(cov)
        assert 2 not in cov.frontier


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


def _overlays(program):
    """(offset, bytes) writes that put a guard's operand on its constant (and,
    for an int, one either side), so that random inputs get past guards."""
    for n in program.nodes:
        if n.kind is GuardKind.INT:
            order = "little" if n.endian == "le" else "big"
            mask = (1 << 8 * n.size) - 1
            for v in (n.constant - 1, n.constant, n.constant + 1):
                yield n.offset, (v & mask).to_bytes(n.size, order)
        elif n.kind is GuardKind.STR:
            yield n.offset, n.constant
        elif n.kind is GuardKind.XOR:
            yield n.offset, bytes([n.constant]) + bytes(n.size - 1)


@st.composite
def _guided_inputs(draw, program):
    """Random bytes with a few guard constants written over them."""
    buf = bytearray(draw(st.binary(max_size=program.max_input_len)))
    writes = st.lists(st.sampled_from(list(_overlays(program))), min_size=1, max_size=6)
    for off, chunk in draw(writes):
        end = min(off + len(chunk), program.max_input_len)
        buf.extend(bytes(max(0, end - len(buf))))
        buf[off:end] = chunk[: end - off]
    return bytes(buf)


def _check_incremental_frontier(doc, data) -> set[int]:
    """Drives generated inputs through a fresh map, comparing its frontier
    with the oracle after each; returns the guards with both edges hit."""
    program = program_from_dict(doc)
    cov = CoverageMap(program)
    harness = Harness(program, synthetic_time=True)
    for x in data.draw(st.lists(_guided_inputs(program), min_size=4, max_size=12)):
        cov.absorb_trace(harness.execute(x))
        assert frozenset(cov.frontier) == recompute_frontier(cov)
    return {e >> 1 for e in cov.edge_hits if e ^ 1 in cov.edge_hits}


@settings(max_examples=300, deadline=None)
@given(_documents(), st.data())
def test_incremental_frontier_matches_on_generated_programs(doc, data):
    # Shared children, bug nodes and every guard kind.
    _check_incremental_frontier(doc, data)


def test_generated_inputs_retire_deep_guards():
    # Derandomized, so the same examples run every time: the frontier check
    # above must see guards past the first few leave the frontier.  About two
    # generated programs in three reach a guard with id >= 3 (their guards
    # form a spine); about one in three of these examples retires one.
    deep = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_documents(), st.data())
    def run(doc, data):
        deep.append(any(nid >= 3 for nid in _check_incremental_frontier(doc, data)))

    run()
    assert sum(deep) >= 60, f"{sum(deep)} of {len(deep)} examples retire a guard with id >= 3"


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
