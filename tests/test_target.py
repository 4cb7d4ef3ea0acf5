import base64
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_executor
from frontierfuzz import builtin_targets
from frontierfuzz.target import (
    _READERS,
    MAX_WINDOW_END,
    BranchObservation,
    DocumentError,
    ExecutionTrace,
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
        assert load_program(doc_bytes(doc)).node(0).offset == MAX_WINDOW_END - 1

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
        (obs,) = trace.observations.values()
        assert obs.outcome is True
        assert harness.program.node(0).relation is Relation.LE
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
        (obs,) = harness.execute(b"ab").observations.values()
        assert obs.byte_diffs == (0, 0, -99)
        assert obs.outcome is False

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
        harness.set_active_sites({0})
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
        harness.set_active_sites({0})
        (obs,) = harness.execute(bytes([1, 2, 3, 4])).observations.values()
        assert obs.f_value == (1 ^ 2 ^ 3 ^ 4) - 0x5D
        assert obs.outcome is False

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
        harness.set_active_sites({0})
        (obs,) = harness.execute(b"\xff" * 8).observations.values()
        assert obs.f_value == 2**64 - 1

    def test_signed_64bit_negative_constant(self):
        doc = {"max_input_len": 8, "entry": 0,
               "nodes": [int_node(0, width=8, relation="lt",
                                  constant=-(2**63), signed=True)]}
        harness = Harness(program_from_dict(doc), synthetic_time=True)
        harness.set_active_sites({0})
        (obs,) = harness.execute(b"\x00" * 7 + b"\x80").observations.values()
        assert obs.f_value == 0  # the operand equals the minimum value
        assert obs.outcome is False


class TestActiveSites:
    def test_all_switches_off(self):
        harness = Harness(builtin_targets.load("chain6"), synthetic_time=True)
        trace = harness.execute(bytes(6))
        assert trace.observations == {}
        assert trace.edges != ()

    def test_all_switches_on(self):
        program = builtin_targets.load("chain6")
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites(program.node_ids)
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
        harness.set_active_sites({0, 1})
        trace = harness.execute(bytes([1, 2, 4, 8, 16, 32]))
        assert len(trace.observations) <= 2
        assert list(trace.observations) == _active_path_sites(trace, {0, 1})

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
        assert set(trace.observations) <= frontier
        assert list(trace.observations) == _active_path_sites(trace, frontier)

    def test_program_shared_across_independent_handles(self):
        program = builtin_targets.load("chain6")
        first = Harness(program, synthetic_time=True)
        second = Harness(program, synthetic_time=True)
        first.set_active_sites({0})
        second.set_active_sites({1, 2})
        data = bytes([1, 2, 4, 8, 16, 32])
        assert list(first.execute(data).observations) == [0]
        assert list(second.execute(data).observations) == [1, 2]
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
        for site, obs in harness.execute(data).observations.items():
            relation = program.node(site).relation
            if obs.f_value is not None:
                assert obs.outcome == relation.holds(obs.f_value)
            else:
                # String outcome follows the lexicographic comparison of the
                # padded operands, i.e. the sign of the first nonzero diff.
                cmp = next((d for d in obs.byte_diffs if d != 0), 0)
                sign = 0 if cmp == 0 else (1 if cmp > 0 else -1)
                assert obs.outcome == relation.holds(sign)

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


def _reference_execute(program, active, data: bytes) -> ExecutionTrace:
    """The trace of ``data`` with the sites in ``active`` observing, under
    synthetic time."""
    rows = [_compile(program.node(i)) for i in range(len(program.nodes))]
    edges = []
    observations = {}
    bug_hits = ()
    nid = program.entry
    while nid is not None:
        kind, off, size, byteorder, signed, const, rel_code, tk, ntk, extra = rows[nid]
        if kind == 3:
            bug_hits = (nid,)
            break
        chunk = data[off : off + size]
        if len(chunk) < size:
            chunk = chunk.ljust(size, b"\0")
        if kind == 0:
            f = int.from_bytes(chunk, byteorder, signed=signed) - const
            outcome = _rel_holds(rel_code, f)
            diffs = None
            key = _row(outcome, rel_code, f)
        elif kind == 1:
            op2 = extra
            op1 = chunk.ljust(len(op2), b"\0")
            cmp = 0 if op1 == op2 else (-1 if op1 < op2 else 1)
            outcome = _rel_holds(rel_code, cmp)
            f = None
            diffs = tuple(a - b for a, b in zip(op1, op2))
            values = tuple(_row(outcome, rel_code, x) for x in diffs)
            key = (sum(abs(v) for v in values), values)
        else:
            x = 0
            for b in chunk:
                x ^= b
            f = x - const
            outcome = _rel_holds(rel_code, f)
            diffs = None
            key = _row(outcome, rel_code, f)
        edges.append(nid + nid if outcome else nid + nid + 1)
        if nid in active:
            observations[nid] = BranchObservation(
                outcome=outcome, f_value=f, byte_diffs=diffs, key=key
            )
        nid = tk if outcome else ntk
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
    a random subset of active sites, each equal to the reference trace."""
    harness = Harness(program, synthetic_time=True)
    ids = sorted(program.node_ids)
    raw_inputs = st.lists(_BYTE_VALUES, max_size=program.max_input_len).map(bytes)
    for raw in data.draw(st.lists(raw_inputs, min_size=1, max_size=8)):
        subset = data.draw(st.frozensets(st.sampled_from(ids)))
        for active in (frozenset(), frozenset(ids), subset):
            harness.set_active_sites(active)
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
