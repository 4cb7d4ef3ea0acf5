import base64
import builtins
import json
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_executor
from frontierfuzz import builtin_targets
from frontierfuzz.campaign import Budget, Campaign, Mode
from frontierfuzz.target import (
    _READERS,
    _TEMPLATES,
    MAX_WINDOW_END,
    DocumentError,
    ExecutionTrace,
    GuardKind,
    Harness,
    Relation,
    load_program,
    program_from_dict,
)
from reference import (
    compare_steps, edge_endpoints, guard_feedback, guard_ids, holds, recompute_frontier,
)


def doc_bytes(doc: dict) -> bytes:
    return json.dumps(doc).encode("utf-8")


def int_node(nid, offset=0, width=1, relation="le", constant=15, taken=None,
             nottaken=None, endian="le", signed=False):
    return {
        "id": nid, "kind": "int", "offset": offset, "width": width,
        "endian": endian, "signed": signed, "relation": relation,
        "constant": constant, "taken": taken, "nottaken": nottaken,
    }


LE15_DOC = {"max_input_len": 4, "entry": 0, "nodes": [int_node(0)]}


def _active_path_sites(trace, active) -> list[int]:
    """The active guard sites along the trace's path, in path order: the
    keys its observation map must have, in that order."""
    return [e >> 1 for e in trace.edges if e >> 1 in active]


class TestLoadProgram:
    def test_minimal_single_guard(self):
        program = load_program(doc_bytes(LE15_DOC))
        assert len(program.nodes) == 1
        assert program.total_edges == 2
        assert program.entry == 0

    def test_dangling_child_rejected(self):
        doc = {"max_input_len": 4, "entry": 0, "nodes": [int_node(0, taken=7)]}
        with pytest.raises(DocumentError, match="child 7"):
            load_program(doc_bytes(doc))

    def test_bundled_magic32_round_trip(self):
        program = builtin_targets.load("magic32")
        assert len(program.nodes) == 1
        node = program.nodes[0]
        assert node.kind is GuardKind.INT
        assert node.size == 4
        assert node.endian == "le"
        assert node.relation is Relation.EQ
        assert node.constant == 0x4A4F4B45

    def test_non_dense_ids_rejected(self):
        doc = {"max_input_len": 4, "entry": 0, "nodes": [int_node(0), int_node(2)]}
        with pytest.raises(DocumentError, match="dense"):
            load_program(doc_bytes(doc))

    def test_duplicate_ids_rejected(self):
        doc = {"max_input_len": 4, "entry": 0, "nodes": [int_node(0), int_node(0)]}
        with pytest.raises(DocumentError, match="duplicate"):
            load_program(doc_bytes(doc))

    def test_cycle_rejected(self):
        doc = {
            "max_input_len": 4,
            "entry": 0,
            "nodes": [int_node(0, taken=1), int_node(1, offset=1, taken=0)],
        }
        with pytest.raises(DocumentError, match="cycle"):
            load_program(doc_bytes(doc))

    def test_operand_window_must_fit(self):
        doc = {"max_input_len": 2, "entry": 0, "nodes": [int_node(0, offset=1, width=4)]}
        with pytest.raises(DocumentError, match="window"):
            load_program(doc_bytes(doc))

    def test_operand_window_past_limit_rejected(self):
        # Loads only up to the limit: padding an input to a window at 2**40
        # would fail to allocate on the first exec.
        for offset, width in ((2**40, 1), (MAX_WINDOW_END - 1, 2)):
            doc = {"max_input_len": 2**62, "entry": 0,
                   "nodes": [int_node(0, offset=offset, width=width)]}
            with pytest.raises(DocumentError, match="byte limit"):
                load_program(doc_bytes(doc))
        doc = {"max_input_len": 2**62, "entry": 0,
               "nodes": [int_node(0, offset=MAX_WINDOW_END - 1)]}
        assert load_program(doc_bytes(doc)).nodes[0].offset == MAX_WINDOW_END - 1

    def test_constant_must_fit_width(self):
        doc = {"max_input_len": 4, "entry": 0, "nodes": [int_node(0, constant=300)]}
        with pytest.raises(DocumentError, match="fit"):
            load_program(doc_bytes(doc))

    def test_xor_constant_single_byte(self):
        doc = {
            "max_input_len": 4,
            "entry": 0,
            "nodes": [{"id": 0, "kind": "xor", "offset": 0, "length": 2,
                       "relation": "eq", "constant": 256}],
        }
        with pytest.raises(DocumentError, match="one byte"):
            load_program(doc_bytes(doc))

    def test_entry_must_exist(self):
        doc = {"max_input_len": 4, "entry": 5, "nodes": [int_node(0)]}
        with pytest.raises(DocumentError, match="entry"):
            load_program(doc_bytes(doc))

    def test_bug_entry_rejected(self):
        doc = {"max_input_len": 4, "entry": 0, "nodes": [{"id": 0, "kind": "bug"}]}
        with pytest.raises(DocumentError, match="bug"):
            load_program(doc_bytes(doc))

    def test_malformed_json_reports_line(self):
        with pytest.raises(DocumentError, match="line"):
            load_program(b'{"max_input_len": 4,\n  "entry"')

    def test_deeply_nested_document_rejected(self):
        nested = b"[" * 200_000 + b"]" * 200_000
        with pytest.raises(DocumentError, match="nests too deeply"):
            load_program(nested)

    def test_integer_literal_past_the_digit_limit_rejected(self):
        # json.loads raises a plain ValueError, not a JSONDecodeError, here.
        document = b'{"max_input_len": ' + b"7" * 5000 + b', "entry": 0, "nodes": []}'
        with pytest.raises(DocumentError, match="document cannot be parsed"):
            load_program(document)

    def test_dag_with_shared_child_is_legal(self):
        doc = {
            "max_input_len": 4,
            "entry": 0,
            "nodes": [
                int_node(0, taken=2, nottaken=1),
                int_node(1, offset=1, taken=2),
                int_node(2, offset=2),
            ],
        }
        assert load_program(doc_bytes(doc)).total_edges == 6


class TestExecute:
    def test_le_guard_true_side(self):
        # Guard "byte <= 15" on a reaching input of 5.
        harness = Harness(program_from_dict(LE15_DOC), synthetic_time=True)
        harness.switch_on({0})
        trace = harness.execute(bytes([5]))
        assert trace.edges == (0,)
        assert trace.observations == {0: 11}  # 1 - f on the true LE row
        outcome, f = guard_feedback(harness.program.nodes[0], bytes([5]))
        assert outcome is True
        assert harness.program.nodes[0].relation is Relation.LE
        assert f == -10

    def test_real_clock_reading_is_at_least_one_ns(self, monkeypatch):
        # A clock that does not advance must not yield a zero exec time.
        monkeypatch.setattr("frontierfuzz.target.time.perf_counter_ns", lambda: 7)
        harness = Harness(program_from_dict(LE15_DOC), synthetic_time=False)
        assert harness.execute(bytes([5])).exec_time == 1

    def test_le_guard_flip_side(self):
        harness = Harness(program_from_dict(LE15_DOC), synthetic_time=True)
        trace = harness.execute(bytes([16]))
        assert trace.edges == (1,)

    def test_string_zero_padding(self):
        # 2-byte window against a 3-byte constant: the window is padded.
        doc = {
            "max_input_len": 4,
            "entry": 0,
            "nodes": [{"id": 0, "kind": "str", "offset": 0, "length": 2,
                       "relation": "eq",
                       "constant": base64.b64encode(b"abc").decode(),
                       "taken": None, "nottaken": None}],
        }
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        harness.switch_on({0})
        assert harness.execute(b"ab").observations == {0: (99, (0, 0, 99))}
        outcome, diffs = guard_feedback(harness.program.nodes[0], b"ab")
        assert diffs == (0, 0, -99)
        assert outcome is False

    def test_string_window_padded_to_constant_length(self):
        # A 2-byte window equals the constant "ab\0" once zero-padded, with
        # the site observing or not.
        doc = {
            "max_input_len": 4,
            "entry": 0,
            "nodes": [{"id": 0, "kind": "str", "offset": 0, "length": 2,
                       "relation": "eq",
                       "constant": base64.b64encode(b"ab\0").decode(),
                       "taken": None, "nottaken": None}],
        }
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        assert harness.execute(b"ab").edges == (0,)
        harness.switch_on({0})
        assert harness.execute(b"ab").edges == (0,)

    def test_xor_observation(self):
        doc = {
            "max_input_len": 4,
            "entry": 0,
            "nodes": [{"id": 0, "kind": "xor", "offset": 0, "length": 4,
                       "relation": "eq", "constant": 0x5D,
                       "taken": None, "nottaken": None}],
        }
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        harness.switch_on({0})
        (key,) = harness.execute(bytes([1, 2, 3, 4])).observations.values()
        outcome, f = guard_feedback(harness.program.nodes[0], bytes([1, 2, 3, 4]))
        assert f == (1 ^ 2 ^ 3 ^ 4) - 0x5D
        assert outcome is False
        assert key == abs(f)  # the false EQ row

    def test_short_input_zero_extended(self):
        doc = {"max_input_len": 8, "entry": 0,
               "nodes": [int_node(0, offset=4, width=4, relation="eq", constant=0)]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        trace = harness.execute(b"\x01")
        assert trace.edges == (0,)  # operand reads as zero, equality holds

    def test_padding_stops_at_furthest_window(self):
        # Padding a short input to max_input_len (2**62) would fail to allocate.
        doc = {"max_input_len": 2**62, "entry": 0,
               "nodes": [int_node(0, relation="eq", constant=7)]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        assert harness.execute(b"\x07").edges == (0,)

    def test_too_long_input_rejected(self):
        harness = Harness(program_from_dict(LE15_DOC), synthetic_time=True)
        with pytest.raises(ValueError, match="max_input_len"):
            harness.execute(bytes(5))

    def test_bug_node_hit(self):
        program = builtin_targets.load("bug_chain")
        harness = Harness(program, synthetic_time=True)
        trace = harness.execute(b"\xad\xde\x80")
        assert trace.bug_hits == (2,)
        assert trace.edges == (0, 2)

    def test_signed_operand(self):
        doc = {"max_input_len": 4, "entry": 0,
               "nodes": [int_node(0, relation="lt", constant=0, signed=True)]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        assert harness.execute(bytes([0xFF])).edges == (0,)  # -1 < 0
        assert harness.execute(bytes([0x7F])).edges == (1,)

    def test_big_endian_operand(self):
        doc = {"max_input_len": 4, "entry": 0,
               "nodes": [int_node(0, width=2, relation="eq", constant=0x0102, endian="be")]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        assert harness.execute(bytes([1, 2])).edges == (0,)

    def test_64bit_unsigned_difference_no_overflow(self):
        doc = {"max_input_len": 8, "entry": 0,
               "nodes": [int_node(0, width=8, relation="eq", constant=0)]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        harness.switch_on({0})
        assert harness.execute(b"\xff" * 8).observations == {0: 2**64 - 1}
        assert guard_feedback(harness.program.nodes[0], b"\xff" * 8) == (False, 2**64 - 1)

    def test_signed_64bit_negative_constant(self):
        doc = {"max_input_len": 8, "entry": 0,
               "nodes": [int_node(0, width=8, relation="lt",
                                  constant=-(2**63), signed=True)]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        harness.switch_on({0})
        data = b"\x00" * 7 + b"\x80"
        assert harness.execute(data).observations == {0: -1}  # f - 1 on the false LT row
        outcome, f = guard_feedback(harness.program.nodes[0], data)
        assert f == 0  # the operand equals the minimum value
        assert outcome is False


class TestActiveSites:
    def test_all_switches_off(self):
        harness = Harness(builtin_targets.load("chain6"), synthetic_time=True)
        trace = harness.execute(bytes(6))
        assert trace.observations == {}
        assert trace.edges != ()

    def test_all_switches_on(self):
        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        harness.switch_on(program.node_ids)
        # The all-taken input reaches every guard, so every guard reports,
        # keyed by site in path order.
        data = bytes([1, 2, 4, 8, 16, 32])
        trace = harness.execute(data)
        assert len(trace.observations) == 6
        assert list(trace.observations) == [0, 1, 2, 3, 4, 5]
        # The executor hands on the very map the harness returned.
        executor = make_executor(program, frontier=program.node_ids)
        execute = executor.harness.execute
        returned = []
        executor.harness.execute = lambda x: returned.append(execute(x)) or returned[-1]
        assert executor.run(data).observations is returned[0].observations

    def test_frontier_subset_bounds_observations(self):
        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        harness.switch_on({0, 1})
        trace = harness.execute(bytes([1, 2, 4, 8, 16, 32]))
        assert len(trace.observations) <= 2
        assert list(trace.observations) == _active_path_sites(trace, {0, 1})

    def test_unknown_site_rejected(self):
        harness = Harness(builtin_targets.load("le15"), synthetic_time=True)
        with pytest.raises(ValueError, match=r"unknown node ids in active set: \[9\]"):
            harness.switch_on({0, 9})
        # Nothing switched on: the known site stays off.
        assert harness.active_sites == set()
        assert harness.execute(bytes([5])).observations == {}

    def test_frontier_derived_active_set_bounds_observations(self):
        from frontierfuzz.coverage import CoverageMap

        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        cov = CoverageMap(program)
        cov.absorb_trace(harness.execute(bytes([1, 2, 0, 0, 0, 0])))
        frontier = recompute_frontier(cov)
        harness.switch_on(frontier)
        trace = harness.execute(bytes([1, 2, 4, 8, 16, 32]))
        assert len(trace.observations) <= len(frontier)
        assert set(trace.observations) <= frontier
        assert list(trace.observations) == _active_path_sites(trace, frontier)

    def test_program_shared_across_independent_handles(self):
        program = builtin_targets.load("chain6")
        first = Harness(program, synthetic_time=True)
        second = Harness(program, synthetic_time=True)
        first.switch_on({0})
        second.switch_on({1, 2})
        data = bytes([1, 2, 4, 8, 16, 32])
        assert list(first.execute(data).observations) == [0]
        assert list(second.execute(data).observations) == [1, 2]
        assert first.active_sites == {0}

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_switching_matches_a_fresh_harness(self, data):
        # A harness switched through a drawn sequence of switch-ons and
        # switch-offs (bug ids, active and inactive sites included) holds the
        # model set and runs like a fresh one switched on once to it: the
        # same edges and keys, in path order.  The program's own step list
        # never changes.
        program = program_from_dict(data.draw(_documents()))
        plain = list(program._steps)
        harness = Harness(program, synthetic_time=True)
        subsets = st.frozensets(st.sampled_from(sorted(program.node_ids)))
        inputs = st.lists(st.binary(max_size=program.max_input_len), max_size=3)
        active = frozenset()
        for sites, on in data.draw(st.lists(st.tuples(subsets, st.booleans()),
                                            min_size=1, max_size=8)):
            if on:
                harness.switch_on(sites)
                active |= sites
            else:
                harness.switch_off(sites)
                active -= sites
            fresh = Harness(program, synthetic_time=True)
            fresh.switch_on(active)
            assert harness.active_sites == active
            for raw in data.draw(inputs):
                got, want = harness.execute(raw), fresh.execute(raw)
                assert got == want
                assert list(got.observations) == list(want.observations)
        assert program._steps == plain

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_string_memo_matches_a_fresh_harness(self, data):
        # A string site's observing step reuses the outcome and key of the
        # last window it saw.  One harness runs a drawn input sequence, drawn
        # from a small pool so windows repeat, and switches drawn sites off
        # and on again between inputs; each trace must equal a fresh
        # harness's, whose memos are empty, and the reference interpreter's,
        # which has no steps.
        program = program_from_dict(data.draw(_documents()))
        ids = sorted(program.node_ids)
        harness = Harness(program, synthetic_time=True)
        harness.switch_on(ids)
        raw_inputs = st.lists(_BYTE_VALUES, max_size=program.max_input_len).map(bytes)
        pool = data.draw(st.lists(raw_inputs, min_size=1, max_size=4))
        for raw in data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)):
            toggled = data.draw(st.frozensets(st.sampled_from(ids)))
            harness.switch_off(toggled)
            harness.switch_on(toggled)
            fresh = Harness(program, synthetic_time=True)
            fresh.switch_on(ids)
            got, want = harness.execute(raw), fresh.execute(raw)
            assert got == want == _reference_execute(program, frozenset(ids), raw)
            assert list(got.observations) == list(want.observations)


class TestDeterminismAndConsistency:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=8))
    def test_identical_runs_identical_traces(self, data):
        program = builtin_targets.load("mixed_tree")
        harness = Harness(program, synthetic_time=True)
        harness.switch_on(program.node_ids)
        assert harness.execute(data) == harness.execute(data)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=8))
    def test_observation_consistency(self, data):
        program = builtin_targets.load("mixed_tree")
        harness = Harness(program, synthetic_time=True)
        harness.switch_on(program.node_ids)
        trace = harness.execute(data)
        for site in trace.observations:
            node = program.nodes[site]
            outcome, feedback = guard_feedback(node, data)
            # The outcome is the side the walk took.
            assert (2 * site if outcome else 2 * site + 1) in trace.edges
            if node.kind is not GuardKind.STR:
                assert outcome == holds(node.relation, feedback)
            else:
                # String outcome follows the lexicographic comparison of the
                # padded operands, i.e. the sign of the first nonzero diff.
                cmp = next((d for d in feedback if d != 0), 0)
                sign = 0 if cmp == 0 else (1 if cmp > 0 else -1)
                assert outcome == holds(node.relation, sign)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=6))
    def test_trace_edges_follow_guard_path(self, data):
        # The edge list is exactly the walked path: each edge's destination
        # is the next edge's source.
        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        trace = harness.execute(data)
        for prev, nxt in zip(trace.edges, trace.edges[1:]):
            src, dst = edge_endpoints(program, prev)
            assert dst == nxt // 2


class TestOperandReaders:
    @staticmethod
    def patterns(width):
        yield bytes(width)
        yield b"\x7f" + b"\xff" * (width - 1)
        yield b"\x80" + bytes(width - 1)
        yield b"\xff" * width
        for i in range(width):
            for bit in (0x01, 0x80):
                yield bytes(i) + bytes([bit]) + bytes(width - i - 1)

    @pytest.mark.parametrize("endian", ["le", "be"])
    @pytest.mark.parametrize("width", [1, 2, 4, 8])
    @pytest.mark.parametrize("signed", [False, True])
    def test_reader_matches_int_from_bytes(self, endian, width, signed):
        read = _READERS[endian, width, signed]
        order = "little" if endian == "le" else "big"
        for window in self.patterns(width):
            # Read at an offset, with bytes on both sides of the window.
            data = b"\xaa" + window + b"\x55"
            assert read(data, 1)[0] == int.from_bytes(window, order, signed=signed)


# -- differential oracle -------------------------------------------------------
# The row interpreter that executed guard programs before each guard was
# compiled into a step function, kept as the reference for the harness: it reads
# operands with ``int.from_bytes`` and computes each observation's distance key
# from its own copy of the distance table.

_REL_CODE = {
    Relation.LT: 0,
    Relation.LE: 1,
    Relation.GT: 2,
    Relation.GE: 3,
    Relation.EQ: 4,
    Relation.NE: 5,
}


def _rel_holds(code: int, v: int) -> bool:
    if code == 4:
        return v == 0
    if code == 5:
        return v != 0
    if code == 0:
        return v < 0
    if code == 1:
        return v <= 0
    if code == 2:
        return v > 0
    return v >= 0


# The distance table, transcribed row by row: how far a comparison with
# operand difference f is from flipping, given its outcome and relation.
def _row(outcome: bool, code: int, f: int) -> int:
    if code == 4:  # eq
        return 1 - abs(f) if outcome else abs(f)
    if code == 5:  # ne
        return abs(f) if outcome else 1 - abs(f)
    if code == 0:  # lt
        return -f if outcome else f - 1
    if code == 1:  # le
        return 1 - f if outcome else f
    if code == 2:  # gt
        return f if outcome else 1 - f
    return f - 1 if outcome else -f  # ge


def _compile(n):
    kind = {GuardKind.INT: 0, GuardKind.STR: 1, GuardKind.XOR: 2, GuardKind.BUG: 3}[n.kind]
    if kind == 3:
        return (3, 0, 0, "little", False, None, 0, None, None, None)
    rel_code = _REL_CODE[n.relation]
    extra = None
    if kind == 1:
        cmplen = max(n.size, len(n.constant))
        extra = bytes(n.constant).ljust(cmplen, b"\0")
    return (
        kind,
        n.offset,
        n.size,
        "little" if n.endian == "le" else "big",
        n.signed,
        n.constant,
        rel_code,
        n.taken,
        n.nottaken,
        extra,
    )


def _reference_guard(row, data: bytes):
    """(outcome, f, diffs, key) of one compiled guard row on ``data``: f for
    an integer or xor guard, diffs for a string guard, the other None."""
    kind, off, size, byteorder, signed, const, rel_code, _, _, extra = row
    chunk = data[off : off + size]
    if len(chunk) < size:
        chunk = chunk.ljust(size, b"\0")
    if kind == 0:
        f = int.from_bytes(chunk, byteorder, signed=signed) - const
        outcome = _rel_holds(rel_code, f)
        return outcome, f, None, _row(outcome, rel_code, f)
    if kind == 1:
        op2 = extra
        op1 = chunk.ljust(len(op2), b"\0")
        cmp = 0 if op1 == op2 else (-1 if op1 < op2 else 1)
        outcome = _rel_holds(rel_code, cmp)
        diffs = tuple(a - b for a, b in zip(op1, op2))
        values = tuple(_row(outcome, rel_code, x) for x in diffs)
        return outcome, None, diffs, (sum(abs(v) for v in values), values)
    x = 0
    for b in chunk:
        x ^= b
    f = x - const
    outcome = _rel_holds(rel_code, f)
    return outcome, f, None, _row(outcome, rel_code, f)


def _reference_execute(program, active, data: bytes) -> ExecutionTrace:
    """The trace of ``data`` with the sites in ``active`` observing, under
    synthetic time."""
    rows = [_compile(node) for node in program.nodes]
    edges = []
    observations = {}
    bug_hits = ()
    nid = program.entry
    while nid is not None:
        row = rows[nid]
        if row[0] == 3:
            bug_hits = (nid,)
            break
        outcome, _, _, key = _reference_guard(row, data)
        edges.append(nid + nid if outcome else nid + nid + 1)
        if nid in active:
            observations[nid] = key
        nid = row[7] if outcome else row[8]
    return ExecutionTrace(tuple(edges), observations, 1, bug_hits)


_RELATION_TOKENS = [r.value for r in Relation]
# Byte values that sit on either side of sign and width boundaries.
_BYTE_VALUES = st.sampled_from([0, 1, 0x7F, 0x80, 0xFF]) | st.integers(0, 0xFF)


@st.composite
def _guard(draw, nid):
    """One guard node of any kind; its children are filled in later."""
    kind = draw(st.sampled_from(["int", "str", "xor"]))
    node = {"id": nid, "kind": kind, "offset": draw(st.integers(0, 6)),
            "relation": draw(st.sampled_from(_RELATION_TOKENS))}
    if kind == "int":
        width = draw(st.sampled_from([1, 2, 4, 8]))
        signed = draw(st.booleans())
        bits = 8 * width
        lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (0, (1 << bits) - 1)
        node.update(width=width, endian=draw(st.sampled_from(["le", "be"])), signed=signed,
                    constant=draw(st.sampled_from([lo, lo + 1, hi - 1, hi, 0, 1])
                                  | st.integers(lo, hi)))
    elif kind == "str":
        # Constants both shorter and longer than the window.
        constant = draw(st.lists(_BYTE_VALUES, min_size=1, max_size=7).map(bytes))
        node.update(length=draw(st.integers(1, 5)),
                    constant=base64.b64encode(constant).decode())
    else:
        node.update(length=draw(st.integers(1, 5)), constant=draw(st.integers(0, 0xFF)))
    return node


@st.composite
def _documents(draw):
    """Acyclic programs whose children point at larger ids, so nodes may
    share children; node 0 (the entry) is a guard, later ones may be bugs.

    A spine keeps them deep: one child of each guard, on a drawn side, is
    the next guard by id (a later bug when no guard follows), so the entry
    reaches every guard; the other child is terminal or any later node."""
    n = draw(st.integers(1, 12))
    nodes = [draw(_guard(0))]
    for nid in range(1, n):
        is_bug = draw(st.integers(0, 3)) == 0
        nodes.append({"id": nid, "kind": "bug"} if is_bug else draw(_guard(nid)))
    guards = [node for node in nodes if node["kind"] != "bug"]
    for node, following in zip(guards, guards[1:] + [None]):
        nid = node["id"]
        later = st.integers(nid + 1, n - 1) if nid + 1 < n else st.nothing()
        spine = later if following is None else st.just(following["id"])
        side = draw(st.sampled_from(["taken", "nottaken"]))
        node[side] = draw(spine) if nid + 1 < n else None
        node["nottaken" if side == "taken" else "taken"] = draw(st.none() | later)
    window_end = max(nd["offset"] + nd.get("width", nd.get("length", 0))
                     for nd in nodes if nd["kind"] != "bug")
    return {"max_input_len": window_end + draw(st.integers(0, 3)), "entry": 0, "nodes": nodes}


def _assert_matches_reference(program, data):
    """Runs on one harness, each input under no, all (bug ids included) and
    a random subset of active sites, each equal to the reference trace; and
    every guard's ``guard_feedback`` on each input, on the path or off it,
    equal to the reference's outcome and f or diffs."""
    harness = Harness(program, synthetic_time=True)
    ids = sorted(program.node_ids)
    raw_inputs = st.lists(_BYTE_VALUES, max_size=program.max_input_len).map(bytes)
    for raw in data.draw(st.lists(raw_inputs, min_size=1, max_size=8)):
        for nid in guard_ids(program):
            node = program.nodes[nid]
            outcome, f, diffs, _ = _reference_guard(_compile(node), raw)
            assert guard_feedback(node, raw) == (outcome, f if diffs is None else diffs)
        subset = data.draw(st.frozensets(st.sampled_from(ids)))
        for active in (frozenset(), frozenset(ids), subset):
            harness.switch_off(ids)
            harness.switch_on(active)
            trace = harness.execute(raw)
            assert trace == _reference_execute(program, active, raw)
            # Dict equality ignores order: check the keys' path order too.
            assert list(trace.observations) == _active_path_sites(trace, active)


class TestDifferentialAgainstInterpreter:
    @settings(max_examples=300, deadline=None)
    @given(_documents(), st.data())
    def test_generated_programs(self, doc, data):
        _assert_matches_reference(program_from_dict(doc), data)

    @pytest.mark.parametrize("name", builtin_targets.names())
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_builtin_targets(self, name, data):
        _assert_matches_reference(builtin_targets.load(name), data)


class TestStepsAtBoundaries:
    """Every step template on operands at the edges of its comparison
    (``reference.compare_steps``), with each case's outcome and key checked
    against the loader reference as well."""

    def test_every_kind_relation_and_outcome(self):
        def cross_check(guard, data, outcome, key):
            ref_outcome, _, _, ref_key = _reference_guard(_compile(guard), data)
            assert (outcome, key) == (ref_outcome, ref_key)

        assert compare_steps(cross_check) > 0

    def test_short_xor_windows_and_signed_bytes_read_by_index(self):
        # The operands on the hot path of deep programs: a later edit must not
        # send them back through ``reduce`` or a struct reader.
        def names(node):
            node.update(id=0, offset=1, relation="le", taken=None, nottaken=None)
            program = program_from_dict({"max_input_len": 16, "entry": 0, "nodes": [node]})
            harness = Harness(program, synthetic_time=True)
            harness.switch_on({0})
            for step in (program._steps[0], harness._steps[0]):
                code = step.__code__
                yield set(code.co_names) | set(code.co_varnames)

        fast = [{"kind": "xor", "length": length, "constant": 7} for length in (1, 2, 3, 4)]
        fast += [{"kind": "int", "width": 1, "endian": endian, "signed": True, "constant": -7}
                 for endian in ("le", "be")]
        for node in fast:
            for used in names(node):
                assert "reduce" not in used and "read" not in used, node
        for used in names({"kind": "xor", "length": 5, "constant": 7}):
            assert "reduce" in used

    def test_bug_node_zero_is_not_a_terminal_edge(self):
        # A bug node's step returns -2 - id, so node 0's is not the -1 of a
        # terminal edge.
        doc = {"max_input_len": 4, "entry": 1,
               "nodes": [{"id": 0, "kind": "bug"}, int_node(1, taken=0)]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        assert harness.execute(bytes([5])).bug_hits == (0,)
        assert harness.execute(bytes([16])).bug_hits == ()


class TestNoPerProgramCompilation:
    def test_steps_share_import_time_templates(self, monkeypatch):
        # Loading programs and switching sites on binds operands into the
        # templates built at import: nothing is compiled, and steps of one
        # template share its code object.
        def refuse(*args, **kwargs):
            raise AssertionError("compiled at load or switch-on")

        documents = [builtin_targets.document(name)
                     for name in ("mixed_tree", "xor_guard", "bug_chain", "magic_str8")]
        steps = []
        for name in ("compile", "exec", "eval"):
            monkeypatch.setattr(builtins, name, refuse)
        # Restore them before a failure reaches pytest, which compiles too.
        try:
            for document in documents:
                program = load_program(document)
                harness = Harness(program, synthetic_time=True)
                harness.switch_on(program.node_ids)
                harness.execute(bytes(program.max_input_len))
                steps += program._steps + harness._steps
        finally:
            monkeypatch.undo()
        codes = {id(step.__code__) for step in steps}
        assert codes <= {id(code) for code in _TEMPLATES.values()}
        assert len(codes) < len(steps)


# -- loader reference ------------------------------------------------------------
# The loader as it was before it checked and built each node in one pass, kept
# verbatim as the reference for ``program_from_dict``: the same document must
# give the same program, or the same first error.  Its node and program types
# are the old frozen dataclass and the old derived sets, without steps.

_VALID_INT_WIDTHS = (1, 2, 4, 8)
_RELATIONS = {r.value: r for r in Relation}


@dataclass(frozen=True)
class _RefNode:
    node_id: int
    kind: GuardKind
    offset: int = 0
    size: int = 1
    endian: str = "le"
    signed: bool = False
    relation: Relation | None = None
    constant: int | bytes | None = None
    taken: int | None = None
    nottaken: int | None = None


class _RefProgram:
    def __init__(self, nodes, entry, max_input_len):
        self.nodes = list(nodes)
        self.entry = entry
        self.max_input_len = max_input_len
        self.node_ids = frozenset(n.node_id for n in self.nodes)
        self.guard_ids = frozenset(
            n.node_id for n in self.nodes if n.kind is not GuardKind.BUG
        )
        self.all_edges = frozenset(
            e for nid in self.guard_ids for e in (2 * nid, 2 * nid + 1)
        )
        self._window_end = max(
            (n.offset + n.size for n in self.nodes if n.kind is not GuardKind.BUG), default=0
        )


def _ref_field(raw: dict, node_ref: str, name: str, types, required: bool = True, default=None):
    value = raw.get(name)
    if value is None:
        if required:
            raise DocumentError(f"{node_ref}: missing field '{name}'")
        return default
    if not isinstance(value, types) or (isinstance(value, bool) and types is int):
        raise DocumentError(f"{node_ref}: field '{name}' has invalid type")
    return value


def _reference_program_from_dict(doc: dict) -> _RefProgram:
    """Build and validate a :class:`GuardProgram` from a decoded document."""
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    max_input_len = _ref_field(doc, "document", "max_input_len", int)
    if max_input_len < 1:
        raise DocumentError("document: max_input_len must be >= 1")
    entry = _ref_field(doc, "document", "entry", int)
    raw_nodes = _ref_field(doc, "document", "nodes", list)
    if not raw_nodes:
        raise DocumentError("document: nodes must be nonempty")

    nodes: dict[int, _RefNode] = {}
    for raw in raw_nodes:
        if not isinstance(raw, dict):
            raise DocumentError("document: each node must be an object")
        nid = _ref_field(raw, "node", "id", int)
        ref = f"node {nid}"
        if nid in nodes:
            raise DocumentError(f"{ref}: duplicate node id")
        kind_token = _ref_field(raw, ref, "kind", str)
        try:
            kind = GuardKind(kind_token)
        except ValueError:
            raise DocumentError(f"{ref}: unknown kind '{kind_token}'") from None

        if kind is GuardKind.BUG:
            if raw.get("taken") is not None or raw.get("nottaken") is not None:
                raise DocumentError(f"{ref}: bug nodes are terminal and take no children")
            nodes[nid] = _RefNode(node_id=nid, kind=kind)
            continue

        offset = _ref_field(raw, ref, "offset", int)
        if offset < 0:
            raise DocumentError(f"{ref}: offset must be >= 0")
        relation_token = _ref_field(raw, ref, "relation", str)
        if relation_token not in _RELATIONS:
            raise DocumentError(f"{ref}: unknown relation '{relation_token}'")
        relation = _RELATIONS[relation_token]
        taken = _ref_field(raw, ref, "taken", int, required=False)
        nottaken = _ref_field(raw, ref, "nottaken", int, required=False)

        if kind is GuardKind.INT:
            size = _ref_field(raw, ref, "width", int)
            if size not in _VALID_INT_WIDTHS:
                raise DocumentError(f"{ref}: width must be one of {_VALID_INT_WIDTHS}")
            endian = _ref_field(raw, ref, "endian", str)
            if endian not in ("le", "be"):
                raise DocumentError(f"{ref}: endian must be 'le' or 'be'")
            signed = _ref_field(raw, ref, "signed", bool)
            constant = _ref_field(raw, ref, "constant", int)
            bits = 8 * size
            lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (0, (1 << bits) - 1)
            if not lo <= constant <= hi:
                raise DocumentError(f"{ref}: constant {constant} does not fit width {size}")
        elif kind is GuardKind.XOR:
            size = _ref_field(raw, ref, "length", int)
            if size < 1:
                raise DocumentError(f"{ref}: length must be >= 1")
            endian = "le"
            signed = False
            constant = _ref_field(raw, ref, "constant", int)
            if not 0 <= constant <= 0xFF:
                raise DocumentError(f"{ref}: xor constant must fit one byte")
        else:
            size = _ref_field(raw, ref, "length", int)
            if size < 1:
                raise DocumentError(f"{ref}: length must be >= 1")
            endian = "le"
            signed = False
            encoded = _ref_field(raw, ref, "constant", str)
            try:
                constant = base64.b64decode(encoded, validate=True)
            except Exception:
                raise DocumentError(f"{ref}: constant is not valid base64") from None
            if not constant:
                raise DocumentError(f"{ref}: string constant must be nonempty")

        if offset + size > max_input_len:
            raise DocumentError(
                f"{ref}: operand window [{offset}, {offset + size}) exceeds "
                f"max_input_len {max_input_len}"
            )
        if offset + size > MAX_WINDOW_END:
            raise DocumentError(f"{ref}: operand window ends past the {MAX_WINDOW_END}-byte limit")
        nodes[nid] = _RefNode(
            node_id=nid,
            kind=kind,
            offset=offset,
            size=size,
            endian=endian,
            signed=signed,
            relation=relation,
            constant=constant,
            taken=taken,
            nottaken=nottaken,
        )

    ids = set(nodes)
    if ids != set(range(len(nodes))):
        raise DocumentError("document: node ids must be dense 0..n-1")
    if entry not in ids:
        raise DocumentError(f"document: entry {entry} is not a node id")
    if nodes[entry].kind is GuardKind.BUG:
        raise DocumentError("document: entry node may not be a bug node")
    for node in nodes.values():
        for child in (node.taken, node.nottaken):
            if child is not None and child not in ids:
                raise DocumentError(f"node {node.node_id}: child {child} does not exist")

    # Child references must be acyclic.
    WHITE, GREY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in ids}
    for start in sorted(ids):
        if color[start] != WHITE:
            continue
        stack: list[tuple[int, bool]] = [(start, False)]
        while stack:
            nid, done = stack.pop()
            if done:
                color[nid] = BLACK
                continue
            if color[nid] == BLACK:
                continue
            if color[nid] == GREY:
                raise DocumentError(f"node {nid}: child references form a cycle")
            color[nid] = GREY
            stack.append((nid, True))
            node = nodes[nid]
            for child in (node.taken, node.nottaken):
                if child is None:
                    continue
                if color[child] == GREY:
                    raise DocumentError(f"node {child}: child references form a cycle")
                if color[child] == WHITE:
                    stack.append((child, False))

    ordered = [nodes[i] for i in range(len(nodes))]
    return _RefProgram(ordered, entry, max_input_len)


def _assert_loaders_agree(doc) -> bool:
    """Both loaders raise ``DocumentError`` with the same message, or both
    return equal programs; True when they loaded."""
    try:
        expected = _reference_program_from_dict(doc)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as info:
            program_from_dict(doc)
        assert str(info.value) == str(exc)
        return False
    program = program_from_dict(doc)
    assert isinstance(program.nodes, tuple)
    assert len(program.nodes) == len(expected.nodes)
    for node, ref in zip(program.nodes, expected.nodes):
        for field in fields(_RefNode):
            got, want = getattr(node, field.name), getattr(ref, field.name)
            assert (type(got), got) == (type(want), want), (node.node_id, field.name)
    for name in ("entry", "max_input_len", "node_ids", "all_edges", "_window_end"):
        assert getattr(program, name) == getattr(expected, name), name
    assert guard_ids(program) == expected.guard_ids
    return True


def _relabelled(doc, perm):
    """``doc`` with node ``i`` renamed ``perm[i]``, listed in the old order."""
    def rename(child):
        return None if child is None else perm[child]

    nodes = []
    for node in doc["nodes"]:
        node = dict(node, id=perm[node["id"]])
        if node["kind"] != "bug":
            node.update(taken=rename(node.get("taken")), nottaken=rename(node.get("nottaken")))
        nodes.append(node)
    return dict(doc, entry=perm[doc["entry"]], nodes=nodes)


# Values of every JSON type, some valid for some fields: a field set to one
# may be missing (None), mistyped (``true`` for an int) or out of range.
_JSON_VALUES = [None, True, False, -1, 0, 1, 3, 256, 2**64, 1.5, "", "x", "le", "eq", "int",
                "bug", "QUJD", "!!", [], {}, [0]]
_OUT_OF_RANGE = {
    "offset": [-1, 2**24],
    "width": [0, 3, 16],
    "length": [0, -2],
    "endian": ["me"],
    "relation": ["lq"],
    "kind": ["float"],
    "constant": [-1, 256, 2**64, "!!", ""],
    "taken": [-1, 99],
    "nottaken": [-1, 99],
}


@st.composite
def _corrupted(draw, doc):
    """A copy of ``doc`` with one or two faults, often in the same node."""
    doc = json.loads(json.dumps(doc))
    nodes = doc["nodes"]
    n = len(nodes)
    index = draw(st.integers(0, n - 1))
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            index = draw(st.integers(0, n - 1))
        node = nodes[index]
        fault = draw(st.sampled_from(["delete", "retype", "range", "id", "dangling", "cycle"]))
        if fault in ("delete", "retype"):
            target = draw(st.sampled_from([doc, node]))
            if not target:
                continue
            key = draw(st.sampled_from(sorted(target)))
            if fault == "delete":
                del target[key]
            else:
                target[key] = draw(st.sampled_from(_JSON_VALUES))
        elif fault == "range":
            key = draw(st.sampled_from(sorted(_OUT_OF_RANGE) + ["max_input_len", "entry"]))
            if key == "max_input_len":
                doc[key] = draw(st.sampled_from([0, -1, 1]))
            elif key == "entry":
                doc[key] = draw(st.sampled_from([-1, n, node.get("id")]))
            elif key == "offset" and draw(st.booleans()):
                node[key] = doc.get("max_input_len")  # the window ends past the input
            else:
                node[key] = draw(st.sampled_from(_OUT_OF_RANGE[key]))
        elif fault == "id":
            other = nodes[draw(st.integers(0, n - 1))].get("id")
            node["id"] = draw(st.sampled_from([other, n, n + 3, -1]))
        elif fault == "dangling":
            node[draw(st.sampled_from(["taken", "nottaken"]))] = draw(st.sampled_from([-1, n, n + 5]))
        else:
            # A child reference to a node that reaches this one (itself included).
            children = {nd.get("id"): (nd.get("taken"), nd.get("nottaken"))
                        for nd in nodes if isinstance(nd, dict)}
            target = node.get("id")

            def reaches(start):
                seen, stack = set(), [start]
                while stack:
                    nid = stack.pop()
                    if nid == target:
                        return True
                    if nid in seen or nid not in children:
                        continue
                    seen.add(nid)
                    stack.extend(c for c in children[nid] if c.__class__ is int)
                return False

            ancestors = sorted(nid for nid in children if nid.__class__ is int and reaches(nid))
            if ancestors:
                node[draw(st.sampled_from(["taken", "nottaken"]))] = draw(st.sampled_from(ancestors))
    return doc


@st.composite
def _loader_cases(draw):
    """A ``_documents()`` program, maybe relabelled so that children point at
    smaller ids and the entry is not 0, maybe corrupted."""
    doc = draw(_documents())
    n = len(doc["nodes"])
    if n > 1 and draw(st.booleans()):
        perm = draw(st.just(list(range(n - 1, -1, -1))) | st.permutations(range(n)))
        doc = _relabelled(doc, perm)
    if draw(st.booleans()):
        doc = draw(_corrupted(doc))
    return doc


# One node of each kind, bug included, with every field present.
_PAIRWISE_DOC = {
    "max_input_len": 8,
    "entry": 0,
    "nodes": [
        int_node(0, width=2, taken=1, nottaken=2),
        {"id": 1, "kind": "str", "offset": 1, "length": 2, "relation": "eq",
         "constant": base64.b64encode(b"ab").decode(), "taken": 3, "nottaken": None},
        {"id": 2, "kind": "xor", "offset": 0, "length": 3, "relation": "ne",
         "constant": 7, "taken": None, "nottaken": 3},
        {"id": 3, "kind": "bug", "taken": None, "nottaken": None},
    ],
}
_DELETED = object()
_PAIRWISE_VALUES = [_DELETED, None, True, -1, 0, 3, 256, 2**64, 1.5, "x", "le", []]


def _set_fields(doc, changes):
    """Apply ``(holder, key, value)`` changes; returns the undo list."""
    undo = [(holder, key, holder.get(key, _DELETED)) for holder, key, _ in changes]
    for holder, key, value in changes:
        if value is _DELETED:
            holder.pop(key, None)
        else:
            holder[key] = value
    return undo


class TestLoaderAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_loader_cases())
    def test_generated_relabelled_and_corrupted_documents(self, doc):
        _assert_loaders_agree(doc)

    def test_relabelled_programs_take_the_cycle_check(self):
        doc = {"max_input_len": 4, "entry": 0,
               "nodes": [int_node(0, taken=1), int_node(1, offset=1, taken=2), int_node(2)]}
        relabelled = _relabelled(doc, [2, 1, 0])
        assert relabelled["entry"] == 2
        assert _assert_loaders_agree(relabelled)
        relabelled["nodes"][2]["taken"] = 2  # node 0 (the old 2) now leads to node 2
        assert not _assert_loaders_agree(relabelled)
        with pytest.raises(DocumentError, match="cycle"):
            program_from_dict(relabelled)

    def test_every_pair_of_faults_in_one_node(self):
        # Each pair of fields of one node (or of the root and one node), each
        # deleted or set to a value of another type or range: both loaders
        # report the same first fault.  A negative offset beside a mistyped
        # ``taken`` is among them.
        doc = json.loads(json.dumps(_PAIRWISE_DOC))
        assert _assert_loaders_agree(doc)
        holders = [[(node, key) for key in node] for node in doc["nodes"]]
        roots = [(doc, "max_input_len"), (doc, "entry")]
        pairs = [(a, b) for fields in holders for i, a in enumerate(fields) for b in fields[i:]]
        pairs += [(a, b) for a in roots for fields in holders for b in fields]
        loaded = 0
        for (h1, k1), (h2, k2) in pairs:
            for v1 in _PAIRWISE_VALUES:
                for v2 in _PAIRWISE_VALUES:
                    undo = _set_fields(doc, [(h1, k1, v1), (h2, k2, v2)])
                    loaded += _assert_loaders_agree(doc)
                    _set_fields(doc, undo[::-1])
        assert 0 < loaded < len(pairs) * len(_PAIRWISE_VALUES) ** 2


_NODE_FIELDS = ["id", "kind", "offset", "width", "length", "endian", "signed", "relation",
                "constant", "taken", "nottaken"]
_ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=5,
)


@st.composite
def _fuzz_documents(draw):
    """1-4-node documents in which any field (any node, too) may hold
    arbitrary JSON or be absent; the rest are valid."""
    def scramble(holder, names):
        for name in names:
            fault = draw(st.integers(0, 23))
            if fault == 22:
                holder[name] = draw(_ANY_JSON)
            elif fault == 23:
                holder.pop(name, None)

    n = draw(st.integers(1, 4))
    nodes = []
    for i in range(n):
        if draw(st.integers(0, 19)) == 0:
            nodes.append(draw(_ANY_JSON))
            continue
        if i and draw(st.integers(0, 3)) == 0:
            node = {"id": i, "kind": "bug"}
        else:
            later = st.none() | st.integers(i + 1, n - 1) if i + 1 < n else st.none()
            node = dict(draw(_guard(i)), taken=draw(later), nottaken=draw(later))
        scramble(node, _NODE_FIELDS)
        nodes.append(node)
    doc = {"max_input_len": 16, "entry": 0, "nodes": nodes}
    scramble(doc, list(doc))
    return doc


class TestLoaderFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_fuzz_documents())
    def test_only_document_errors_and_loaded_programs_run(self, doc):
        try:
            program = load_program(json.dumps(doc).encode("utf-8"))
        except DocumentError:
            return
        seed = bytes(min(program.max_input_len, 8))
        for mode in Mode:
            Campaign(program, [seed], mode, Budget(max_execs=300), rng_seed=0,
                     synthetic_time=True).run()


def _chain_doc(depth):
    """``depth`` one-byte ``eq 0`` guards in a chain: guard i reads byte i
    and its taken edge leads to guard i + 1."""
    nodes = [int_node(i, offset=i, relation="eq", constant=0,
                      taken=i + 1 if i + 1 < depth else None) for i in range(depth)]
    return {"max_input_len": depth, "entry": 0, "nodes": nodes}


class TestDeepProgram:
    DEPTH = 4096

    def test_chain_loads_and_the_zero_input_walks_it(self):
        program = load_program(doc_bytes(_chain_doc(self.DEPTH)))
        assert len(guard_ids(program)) == self.DEPTH
        trace = Harness(program, synthetic_time=True).execute(bytes(self.DEPTH))
        assert trace.edges == tuple(range(0, 2 * self.DEPTH, 2))

    def test_back_edge_to_the_entry_rejected(self):
        doc = _chain_doc(self.DEPTH)
        doc["nodes"][-1]["nottaken"] = 0
        with pytest.raises(DocumentError, match="cycle"):
            load_program(doc_bytes(doc))

    @pytest.mark.parametrize("mode", [Mode.BASE, Mode.SCHED])
    def test_campaign_keeps_the_frontier(self, mode):
        program = load_program(doc_bytes(_chain_doc(self.DEPTH)))
        campaign = Campaign(program, [bytes(self.DEPTH)], mode, Budget(max_execs=200),
                            rng_seed=0, synthetic_time=True)
        campaign.run()
        coverage = campaign.coverage
        assert recompute_frontier(coverage) == coverage.frontier
