import base64
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontierfuzz import builtin_targets
from frontierfuzz.target import (
    DocumentError,
    GuardKind,
    Harness,
    Relation,
    load_program,
    program_from_dict,
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
        node = program.node(0)
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
        harness.set_active_sites({0})
        trace = harness.execute(bytes([5]))
        assert trace.edges == (0,)
        (obs,) = trace.observations
        assert obs.outcome is True
        assert obs.relation is Relation.LE
        assert obs.f_value == -10

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
        harness.set_active_sites({0})
        (obs,) = harness.execute(b"ab").observations
        assert obs.byte_diffs == (0, 0, -99)
        assert obs.compared_length == 3
        assert obs.outcome is False

    def test_xor_observation(self):
        doc = {
            "max_input_len": 4,
            "entry": 0,
            "nodes": [{"id": 0, "kind": "xor", "offset": 0, "length": 4,
                       "relation": "eq", "constant": 0x5D,
                       "taken": None, "nottaken": None}],
        }
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        harness.set_active_sites({0})
        (obs,) = harness.execute(bytes([1, 2, 3, 4])).observations
        assert obs.f_value == (1 ^ 2 ^ 3 ^ 4) - 0x5D
        assert obs.outcome is False

    def test_short_input_zero_extended(self):
        doc = {"max_input_len": 8, "entry": 0,
               "nodes": [int_node(0, offset=4, width=4, relation="eq", constant=0)]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        trace = harness.execute(b"\x01")
        assert trace.edges == (0,)  # operand reads as zero, equality holds

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
        harness.set_active_sites({0})
        (obs,) = harness.execute(b"\xff" * 8).observations
        assert obs.f_value == 2**64 - 1

    def test_signed_64bit_negative_constant(self):
        doc = {"max_input_len": 8, "entry": 0,
               "nodes": [int_node(0, width=8, relation="lt",
                                  constant=-(2**63), signed=True)]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        harness.set_active_sites({0})
        (obs,) = harness.execute(b"\x00" * 7 + b"\x80").observations
        assert obs.f_value == 0  # the operand equals the minimum value
        assert obs.outcome is False


class TestActiveSites:
    def test_all_switches_off(self):
        harness = Harness(builtin_targets.load("chain6"), synthetic_time=True)
        trace = harness.execute(bytes(6))
        assert trace.observations == ()
        assert trace.edges != ()

    def test_all_switches_on(self):
        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites(program.node_ids)
        # The all-taken input reaches every guard, so every guard reports.
        trace = harness.execute(bytes([1, 2, 4, 8, 16, 32]))
        assert len(trace.observations) == 6

    def test_frontier_subset_bounds_observations(self):
        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites({0, 1})
        trace = harness.execute(bytes([1, 2, 4, 8, 16, 32]))
        assert len(trace.observations) <= 2

    def test_unknown_site_rejected(self):
        harness = Harness(builtin_targets.load("le15"), synthetic_time=True)
        with pytest.raises(ValueError, match="unknown node"):
            harness.set_active_sites({9})

    def test_frontier_derived_active_set_bounds_observations(self):
        from frontierfuzz.coverage import CoverageMap, recompute_frontier

        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        cov = CoverageMap(program)
        cov.absorb_trace(harness.execute(bytes([1, 2, 0, 0, 0, 0])))
        frontier = recompute_frontier(cov)
        harness.set_active_sites(frontier)
        trace = harness.execute(bytes([1, 2, 4, 8, 16, 32]))
        assert len(trace.observations) <= len(frontier)
        assert {o.site for o in trace.observations} <= frontier

    def test_program_shared_across_independent_handles(self):
        program = builtin_targets.load("chain6")
        first = Harness(program, synthetic_time=True)
        second = Harness(program, synthetic_time=True)
        first.set_active_sites({0})
        second.set_active_sites({1, 2})
        data = bytes([1, 2, 4, 8, 16, 32])
        assert {o.site for o in first.execute(data).observations} == {0}
        assert {o.site for o in second.execute(data).observations} == {1, 2}
        assert first.active_sites == {0}


class TestDeterminismAndConsistency:
    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=8))
    def test_identical_runs_identical_traces(self, data):
        program = builtin_targets.load("mixed_tree")
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites(program.node_ids)
        assert harness.execute(data) == harness.execute(data)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=8))
    def test_observation_consistency(self, data):
        program = builtin_targets.load("mixed_tree")
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites(program.node_ids)
        for obs in harness.execute(data).observations:
            if obs.f_value is not None:
                assert obs.outcome == obs.relation.holds(obs.f_value)
            else:
                # String outcome follows the lexicographic comparison of the
                # padded operands, i.e. the sign of the first nonzero diff.
                cmp = next((d for d in obs.byte_diffs if d != 0), 0)
                sign = 0 if cmp == 0 else (1 if cmp > 0 else -1)
                assert obs.outcome == obs.relation.holds(sign)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=6))
    def test_trace_edges_follow_guard_path(self, data):
        # The edge list is exactly the walked path: each edge's destination
        # is the next edge's source.
        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        trace = harness.execute(data)
        for prev, nxt in zip(trace.edges, trace.edges[1:]):
            src, dst = program.edge_endpoints(prev)
            assert dst == nxt // 2
