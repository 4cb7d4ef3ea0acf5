import base64
import collections
import functools
import itertools
import math
import operator
import pathlib
import random
import types
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_executor
from frontierfuzz import builtin_targets, mutation
from frontierfuzz.campaign import Budget, Campaign, Mode, _RunEnded
from frontierfuzz.distance import observation_distance
from frontierfuzz.mutation import (
    _ARITH_MAX,
    _BATCH_STACK,
    _BYTES_PER_OP,
    _INTERESTING,
    _SEARCH_CHUNK,
    _SEARCH_STACK,
    Mutator,
    SubgradientRecord,
    compute_subgradient,
    havoc_mutate,
    infer_hot_bytes,
    _ROOTS,
    _clamp_byte,
    _solve,
)
from frontierfuzz.target import GuardKind, GuardProgram, Harness, Relation, program_from_dict
from reference import (
    _ROWS, compare_havoc, compare_locator, distance_key, execute, fraction_newton_step,
    guard_feedback, guard_ids, holds, locate, round_half_away, row_slope, word_width,
)
from test_target import _BYTE_VALUES, _RELATION_TOKENS, _documents, _guard


def l1_norm(g: dict[int, Fraction]) -> Fraction:
    return sum((abs(v) for v in g.values()), Fraction(0))


class ScriptedRng(random.Random):
    """Deterministic rng double that plays back scripted ``getrandbits``
    draws, each given as (expected bit width, value): a havoc call takes one
    30-bit draw for its stack depth and one word per operator, whose width
    depends on the longest input the call can reach."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def getrandbits(self, k):
        width, value = self.draws.pop(0)
        assert k == width
        return value


class OpPinnedRng(random.Random):
    """A seeded rng whose every ``width``-bit draw has ``index`` as its
    residue modulo ``n_ops``.  Under ``stack_max=1`` the stack depth ignores
    it, so when ``width`` is the call's operator word, every havoc call
    applies operator ``index`` with all other fields drawn at random."""

    def __init__(self, seed, index, n_ops, width):
        super().__init__(seed)
        self.index, self.n_ops, self.width = index, n_ops, width

    def getrandbits(self, k):
        r = super().getrandbits(k)
        if k == self.width:
            r += self.index - r % self.n_ops
            if r >= 1 << k:
                r -= self.n_ops
        return r


def _single_op(seed, op, samples, *, max_len=None, rng_seed=0):
    """``samples`` havoc mutants of ``seed`` that each apply operator ``op``
    once; the resize operators 6 and 7 are drawn exactly when ``max_len`` is
    given."""
    rng = OpPinnedRng(rng_seed, op, 8 if max_len is not None else 6,
                      word_width(len(seed), max_len))
    return [havoc_mutate(seed, rng, 1, max_len) for _ in range(samples)]


def _spec_outcomes(seed, budget, op):
    """The exact distribution of one operator's mutant of ``seed``, enumerated
    from its fields, each uniform over its documented range."""
    n = len(seed)
    out = collections.Counter()

    def put(pos, new, p):
        mutant = bytearray(seed)
        mutant[pos:pos + len(new)] = new
        out[bytes(mutant)] += p

    if op == 0:
        for pos, bit in itertools.product(range(n), range(8)):
            put(pos, [seed[pos] ^ (1 << bit)], 1 / (8 * n))
    elif op == 1:
        for pos, value in itertools.product(range(n), range(256)):
            put(pos, [value], 1 / (256 * n))
    elif op == 2:
        for pos, delta in itertools.product(range(n), range(1, _ARITH_MAX + 1)):
            for step in (delta, -delta):
                put(pos, [(seed[pos] + step) & 0xFF], 1 / (2 * _ARITH_MAX * n))
    elif op == 3:
        widths = [w for w in (1, 2, 4) if w <= min(n, budget)]
        for w in widths:
            values = _INTERESTING[w]
            p = 1 / (len(widths) * len(values) * 2 * (n - w + 1))
            for value, order, pos in itertools.product(values, ("little", "big"),
                                                       range(n - w + 1)):
                put(pos, (value & ((1 << (8 * w)) - 1)).to_bytes(w, order), p)
    elif op == 5:
        for i, j in itertools.product(range(n), repeat=2):
            mutant = bytearray(seed)
            mutant[i], mutant[j] = mutant[j], mutant[i]
            out[bytes(mutant)] += 1 / n ** 2
    elif op == 6:
        m = min(budget, n - 1)
        if m < 1:
            out[bytes(seed)] = 1.0
        for blen in range(1, m + 1):
            for pos in range(n - blen + 1):
                out[seed[:pos] + seed[pos + blen:]] += 1 / (m * (n - blen + 1))
    return out


def _assert_frequencies(samples, expected):
    """Each outcome's count is within five standard deviations of its
    expected count, and no unexpected outcome occurs."""
    counts = collections.Counter(samples)
    total = len(samples)
    assert set(counts) <= set(expected)
    for outcome, p in expected.items():
        mean = total * p
        assert abs(counts[outcome] - mean) <= 5 * math.sqrt(mean * (1 - p)) + 1, \
            (outcome, counts[outcome], mean)


class TestHavoc:
    def test_single_bit_flip(self):
        # The stack draw 0 gives a stack of one.  The operator draw 114 reads,
        # in mixed radix: operator 114 % 6 = 0 (the bit flip), then bit
        # 19 % 8 = 3, then position 2 % 4 = 2.
        rng = ScriptedRng([(30, 0), (30, 114)])
        mutant = havoc_mutate(bytes(4), rng, _SEARCH_STACK)
        assert mutant == bytes([0, 0, 8, 0])
        assert not rng.draws

    @pytest.mark.parametrize("stack_max", [0, -1, -7])
    def test_stack_max_below_one_rejected(self, stack_max):
        with pytest.raises(ValueError, match="stack_max must be >= 1"):
            havoc_mutate(b"seed", random.Random(0), stack_max)

    @pytest.mark.parametrize("stream", [1, 2, 3, 4, 8, 64])
    def test_matches_reference(self, stream):
        # Same output bytes and same rng state after every call, across
        # stack depths, resize off (no cap) and on (each cap), and seed
        # lengths.  The long lengths take operator words from 30 up to 44
        # bits wide.  At 359-364 (8 operators) and 413-419 (6) the largest
        # length a call can reach crosses the bound past which the word
        # grows from 30 to 31 bits.  A call whose insert grows the buffer
        # past the bound shows a width taken from the seed's length only if
        # a swap follows, so these lengths take many calls each.  At 255-258
        # the largest length crosses 256, up to which havoc_mutate takes 30
        # bits without computing the width.  Each length also checks as many
        # samples of local search's planned loop (stack 4, no cap).
        lengths = list(range(1, 41)) + [300, 419, 600, 1_500, 2_500, 20_000, 40_000]
        assert compare_havoc(lengths, 1, stream) == (3 * 4 + 1) * len(lengths)
        bound = list(range(255, 259)) + list(range(359, 365)) + list(range(413, 420))
        assert compare_havoc(bound, 25, stream) == (3 * 4 + 1) * len(bound) * 25

    @pytest.mark.parametrize("resize", [False, True])
    def test_operator_mix(self, resize):
        # On a seed of distinct bytes the delete, the insert and the byte
        # swap (when its two positions differ) each show themselves; each
        # operator is drawn with probability 1 / n_ops.
        ops = range(8 if resize else 6)
        seed = bytes(range(16))
        max_len = 64 if resize else None
        rng = random.Random(11)
        total = 8_000
        kinds = collections.Counter()
        for _ in range(total):
            mutant = havoc_mutate(seed, rng, 1, max_len)
            if len(mutant) != len(seed):
                kinds["delete" if len(mutant) < len(seed) else "insert"] += 1
            elif mutant != seed and sorted(mutant) == sorted(seed):
                kinds["swap"] += 1
            else:
                kinds["in place"] += 1
        p = 1 / len(ops)
        expected = {
            "delete": p if 6 in ops else 0,
            "insert": p if 7 in ops else 0,
            "swap": p * 15 / 16 if 5 in ops else 0,
        }
        expected["in place"] = 1 - sum(expected.values())
        _assert_frequencies(list(kinds.elements()),
                            {kind: q for kind, q in expected.items() if q})

    @pytest.mark.parametrize("op,length,bytes_per_op", [
        (op, length, _BYTES_PER_OP) for op in (0, 1, 2, 3, 5, 6) for length in (1, 3, 6)
    ])
    def test_operator_fields_uniform(self, op, length, bytes_per_op):
        # Every field an operator reads is uniform over its documented range:
        # bit, byte value, delta 1..35 with both signs, the interesting values
        # in both endiannesses for every width that fits, swap positions, and
        # the delete's block length and position.
        seed = bytes(range(10, 10 + length))
        expected = _spec_outcomes(seed, bytes_per_op, op)
        total = min(40_000, max(2_000, round(30 / min(expected.values()))))
        samples = _single_op(seed, op, total, max_len=length if op == 6 else None,
                             rng_seed=100 * op + length)
        _assert_frequencies(samples, expected)

    @pytest.mark.parametrize("op", [0, 1, 2])
    @pytest.mark.parametrize("length", [5, 300, 1_000, 2**20 + 5])
    def test_positions_uniform(self, op, length):
        # Positions are uniform over the whole input, at lengths whose
        # operator words are 30 bits wide (5 and 300) and wider (33 bits at
        # 1,000, 53 at 2**20 + 5).
        seed = bytes(length)
        buckets = min(length, 64 if length < 2**20 else 16)
        nonzero = bytes([0] + [1] * 255)
        hits = []
        for mutant in _single_op(seed, op, 30 * buckets, rng_seed=length + op):
            pos = mutant.translate(nonzero).find(1)
            if pos >= 0:  # a byte set may write the zero it found
                hits.append(pos * buckets // length)
        # Bucket b holds the positions from ceil(b * length / buckets) up.
        starts = [-(-b * length // buckets) for b in range(buckets + 1)]
        _assert_frequencies(hits, {b: (starts[b + 1] - starts[b]) / length
                                   for b in range(buckets)})

    @pytest.mark.parametrize("op,draw,changed", [
        (0, 0, 1),  # bit 0 flipped
        (1, 1 + 6 * 7, 7),  # byte value 7
        (2, 2 + 6 * 1, 1),  # sign 1, delta 1
    ])
    def test_last_position_reachable_at_long_length(self, op, draw, changed):
        # On a 1 MiB input the operator word is 53 bits wide, so the last
        # byte is a position its mixed radix reaches: ``draw`` holds the
        # operator and the field below the position, whose range is
        # 8 (bit), 256 (value) or 70 (sign and delta).
        length = 2**20 + 5
        word = draw + 6 * (8, 256, 70)[op] * (length - 1)
        rng = ScriptedRng([(30, 0), (53, word)])
        mutant = havoc_mutate(bytes(length), rng, _SEARCH_STACK)
        assert mutant[-1] == changed
        assert mutant.count(0) == length - 1
        assert not rng.draws

    @pytest.mark.parametrize("length,max_len,width", [
        (362, 362, 30), (363, 363, 31),  # resizing: 8 * 363 * 363 > 2**20
        (418, None, 30), (419, None, 31),  # plain: 6 * 419 * 419 > 2**20
    ])
    def test_word_width_at_the_bound(self, length, max_len, width):
        # The word widens by one bit where the largest product of ranges
        # passes 2**20.  The byte set reads the word's top bit too: raising
        # its position field by a multiple of the length leaves the byte
        # on the last position.
        n_ops = 8 if max_len is not None else 6
        step = n_ops * 256 * length
        word = 1 + n_ops * (7 + 256 * (length - 1))
        word += (2**width - 1 - word) // step * step
        assert 2**(width - 1) <= word < 2**width
        rng = ScriptedRng([(30, 0), (width, word)])
        mutant = havoc_mutate(bytes(length), rng, 1, max_len)
        assert mutant == bytes(length - 1) + bytes([7])
        assert not rng.draws

    @pytest.mark.parametrize("length,bytes_per_op", [(2, _BYTES_PER_OP), (6, _BYTES_PER_OP)])
    def test_block_lengths(self, length, bytes_per_op):
        # Block overwrite writes 1..min(budget, n) bytes and insert adds
        # 1..min(budget, max_len - n), each uniformly.
        m = min(bytes_per_op, length)
        spans = []
        for mutant in _single_op(bytes(length), 4, 400 * m, rng_seed=length):
            stripped = mutant.strip(b"\0")
            if stripped:
                spans.append(len(stripped))
        # A span comes up short when the block's first or last random byte is
        # zero, so the long spans lose about 2/256 of their share.
        counts = collections.Counter(spans)
        assert set(counts) == set(range(1, m + 1))
        for blen in range(1, m + 1):
            assert abs(counts[blen] - len(spans) / m) <= 0.1 * len(spans) / m
        # An insert lands at any of the n + 1 gaps, the end included; on a
        # seed of 0xFF bytes its first differing byte marks the gap unless
        # the block starts with 0xFF.
        max_len = length + 3
        grow = min(bytes_per_op, max_len - length)
        seed = b"\xff" * length
        inserted = _single_op(seed, 7, 300 * max(grow, length + 1), max_len=max_len)
        _assert_frequencies([len(mutant) - length for mutant in inserted],
                            {blen: 1 / grow for blen in range(1, grow + 1)})
        gaps = collections.Counter(
            next((i for i, (a, b) in enumerate(zip(seed, mutant)) if a != b), length)
            for mutant in inserted)
        assert set(gaps) == set(range(length + 1))
        share = len(inserted) / (length + 1)
        for gap in range(length + 1):
            assert abs(gaps[gap] - share) <= 0.15 * share

    @settings(max_examples=200, deadline=None)
    @given(
        stack_max=st.integers(1, 32),
        seed=st.binary(min_size=1, max_size=64),
        rng_seed=st.integers(0, 2**32),
        max_len=st.integers(1, 128),
    )
    def test_length_bounds_with_resize(self, stack_max, seed, rng_seed, max_len):
        # A resized mutant keeps at least one byte, stays within 4 bytes of
        # the seed's length, and grows only up to max_len.
        rng = random.Random(rng_seed)
        low = max(1, len(seed) - 4)
        high = min(len(seed) + 4, max(max_len, len(seed)))
        for _ in range(8):
            mutant = havoc_mutate(seed, rng, stack_max, max_len)
            assert low <= len(mutant) <= high

    def test_length_bounds_reached(self):
        # Both ends of the resize range are reachable.
        seed = bytes(range(16))
        rng = random.Random(8)
        lengths = {len(havoc_mutate(seed, rng, _BATCH_STACK, 19)) for _ in range(3_000)}
        assert lengths == set(range(12, 20))

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            havoc_mutate(b"", random.Random(0), _SEARCH_STACK)

    def test_locality_bound(self):
        # Every local-search mutant stays within stack * 4 differing bytes.
        seed = bytes(range(32))
        rng = random.Random(1234)
        bound = _SEARCH_STACK * 4
        for _ in range(10_000):
            mutant = havoc_mutate(seed, rng, _SEARCH_STACK)
            assert len(mutant) == len(seed)
            hamming = sum(1 for a, b in zip(seed, mutant) if a != b)
            assert hamming <= bound

    @settings(max_examples=200, deadline=None)
    @given(
        stack_max=st.integers(1, 32),
        seed=st.binary(min_size=1, max_size=64),
        rng_seed=st.integers(0, 2**32),
    )
    def test_fixed_length_without_resize(self, stack_max, seed, rng_seed):
        # Local search relies on this: its samples align byte for byte with
        # the seed, so it never zero-extends.
        rng = random.Random(rng_seed)
        for _ in range(8):
            mutant = havoc_mutate(seed, rng, stack_max)
            assert len(mutant) == len(seed)

    def test_determinism_across_runs(self):
        seed = bytes(range(16))
        first = [havoc_mutate(seed, random.Random(99), _SEARCH_STACK) for _ in range(500)]
        second = [havoc_mutate(seed, random.Random(99), _SEARCH_STACK) for _ in range(500)]
        assert first == second

    def test_resize_bounded(self):
        seed = bytes(range(16))
        rng = random.Random(5)
        for _ in range(5_000):
            mutant = havoc_mutate(seed, rng, _BATCH_STACK, 20)
            assert abs(len(mutant) - len(seed)) <= 4
            assert len(mutant) <= 20


class TestSubgradient:
    def test_single_byte_slope(self):
        g = compute_subgradient(bytes([5]), bytes([7]), 11, 9)
        assert g == {0: Fraction(-1)}

    def test_identical_inputs_zero_vector(self):
        g = compute_subgradient(bytes([5]), bytes([5]), 11, 11)
        assert g == {}
        assert l1_norm(g) == 0

    def test_elementwise_division(self):
        g = compute_subgradient(bytes([5, 0]), bytes([7, 3]), 11, 9)
        assert g == {0: Fraction(-1), 1: Fraction(-2, 3)}

    def test_vector_distances_use_l1(self):
        d0 = observation_distance((4, (2, 2)))
        d1 = observation_distance((2, (1, 1)))
        g = compute_subgradient(bytes([0, 0]), bytes([2, 0]), d0, d1)
        assert g == {0: Fraction(-1)}

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            compute_subgradient(bytes([5]), bytes([5, 3]), 11, 9)


class TestNewtonStep:
    """The tests' one byte-space Newton step, ``fraction_newton_step``, on
    which criterion 2's worked example rests."""

    def test_boundary_guard_lands_on_flip_input(self):
        out = fraction_newton_step(bytes([5]), 11, {0: Fraction(-1)})
        assert out == bytes([16])

    def test_zero_distance_returns_witness(self):
        out = fraction_newton_step(bytes([5]), 0, {0: Fraction(-1)})
        assert out == bytes([5])

    def test_clamps_to_byte_range(self):
        assert fraction_newton_step(bytes([200]), 120, {0: Fraction(-1)}) == bytes([255])
        assert fraction_newton_step(bytes([5]), -20, {0: Fraction(-1)}) == bytes([0])

    def test_length_preserved(self):
        # A slope past the witness's end moves nothing.
        out = fraction_newton_step(bytes([5, 9, 9]), 4, {0: Fraction(-2), 5: Fraction(1)})
        assert out == bytes([7, 9, 9])

    @pytest.mark.parametrize(
        "value,expected",
        [(Fraction(5, 2), 3), (Fraction(-5, 2), -3), (Fraction(12, 5), 2),
         (Fraction(-12, 5), -2), (Fraction(7), 7), (Fraction(1, 2), 1)],
    )
    def test_round_half_away(self, value, expected):
        assert round_half_away(value) == expected


def le15_program():
    return builtin_targets.load("le15")


class TestLocalSearch:
    def test_linear_guard_slope_sign(self):
        program = le15_program()
        executor = make_executor(program, frontier={0})
        mutator = Mutator(program, 64)
        records = mutator.local_search(bytes([5]), {0}, executor, random.Random(0))
        g = records[0].g
        assert l1_norm(g) > 0
        # Distance 16 - x falls as the byte grows: the slope is negative.
        assert all(v <= 0 for v in g.values())
        assert g[0] == Fraction(-1)

    def test_unreachable_frontier_yields_empty_map(self):
        # The only frontier branch hides behind a 2-byte magic compare the
        # sampler will not hit with this rng seed.
        program = builtin_targets.load("bug_chain")
        executor = make_executor(program, frontier={1})
        mutator = Mutator(program, 64)
        records = mutator.local_search(bytes(8), {1}, executor, random.Random(0))
        assert records == {}

    def test_one_record_per_reached_branch(self):
        program = builtin_targets.load("mixed_tree")
        executor = make_executor(program, frontier={0, 2})
        mutator = Mutator(program, 128)
        records = mutator.local_search(bytes(8), {0, 2}, executor, random.Random(1))
        assert set(records) <= {0, 2}
        assert len(records) <= 2

    def test_executions_recorded_in_scheduler(self):
        # The magic guard cannot flip during sampling, so every execution
        # reaches a live frontier branch and lands in its clocks.
        program = builtin_targets.load("magic32")
        executor = make_executor(program, frontier={0})
        mutator = Mutator(program, 32)
        mutator.local_search(bytes(8), {0}, executor, random.Random(0))
        stats = executor.scheduler.stats[0]
        # Synthetic time charges one unit per exec.
        assert stats.tt == executor.execs == 32
        assert stats.pt <= stats.tt

    def test_retained_slope_is_global_lower_bound_on_linear_guard(self):
        # Exhaustive oracle: the boundary guard's distance at every byte
        # value, measured through the harness.
        program = le15_program()
        executor = make_executor(program, frontier={0})
        mutator = Mutator(program, 64)
        seed = bytes([5])
        records = mutator.local_search(seed, {0}, executor, random.Random(2))
        g = records[0].g[0]
        harness = Harness(program, synthetic_time=True)
        harness.switch_on({0})

        def dist(x):
            (key,) = harness.execute(bytes([x])).observations.values()
            return observation_distance(key)

        d_seed = dist(5)
        for x in range(256):
            assert g * (x - 5) <= dist(x) - d_seed


@dataclass
class _SeedKeyedRecord:
    """``SubgradientRecord`` as it was when local search kept a record for
    every frontier site a sample reached: the seed's key rode along, and a
    site the seed missed had none."""

    g: dict[int, Fraction]
    witness: bytes
    witness_key: int | tuple[int, tuple[int, ...]]
    seed_key: int | tuple[int, tuple[int, ...]] | None = None


def _reference_local_search(self, seed, frontier, executor, rng):
    """``Mutator.local_search`` as it was before the norm was factored: a
    ``Fraction`` slope dict and its L1 norm for every (sample, frontier site)
    pair, one ``run`` per sample, and samples counted one at a time: sample
    ``i`` ends a chunk when ``i % _SEARCH_CHUNK`` is the last index, and the
    search stops after a chunk in which no norm rose above its site's best
    (0 before any) at a site still on the executor's frontier at the chunk's
    end, or once every frontier site the seed reached that is still on that
    frontier has a nonzero best.  Called with the mutator as ``self``; kept
    as the oracle for the records the factored version keeps."""
    records: dict[int, _SeedKeyedRecord] = {}
    norms: dict[int, Fraction] = {}
    seed_keys: dict[int, object] = {}
    raised: set[int] = set()
    for i in range(self.sample_size):
        if i and i % _SEARCH_CHUNK == 0:
            live = executor.coverage.frontier
            if not raised & live or all(norms.get(site, 0) > 0 for site in seed_keys
                                        if site in frontier and site in live):
                break
            raised = set()
        data = seed if i == 0 else havoc_mutate(seed, rng, _SEARCH_STACK)
        outcome = executor.run(data)
        if i == 0:
            seed_keys = dict(outcome.observations)
        for site, key in outcome.observations.items():
            if site not in frontier:
                continue
            base = seed_keys.get(site)
            if data == seed or base is None:
                g: dict[int, Fraction] = {}
            else:
                g = compute_subgradient(
                    seed, data,
                    observation_distance(base),
                    observation_distance(key),
                )
            norm = l1_norm(g)
            if norm > norms.get(site, 0):
                raised.add(site)
            if site not in records or norm > norms[site]:
                records[site] = _SeedKeyedRecord(g, data, key, base)
                norms[site] = norm
    return records


@st.composite
def _search_setups(draw):
    """A program (builtin or generated), its active sites and frontier (a
    subset of them), and a nonempty seed no longer than ``max_input_len``."""
    if draw(st.booleans()):
        program = builtin_targets.load(draw(st.sampled_from(builtin_targets.names())))
    else:
        program = program_from_dict(draw(_documents()))
    ids = sorted(program.node_ids)
    active = draw(st.frozensets(st.sampled_from(ids)))
    frontier = draw(st.frozensets(st.sampled_from(ids)))
    seed = draw(st.binary(min_size=1, max_size=program.max_input_len))
    return program, active | frontier, frontier, seed


class TestLocalSearchAgainstReference:
    # Up to 300 samples: several chunks, so the search can stop at any of
    # the first four chunk boundaries or run to its cap mid-chunk.
    @settings(max_examples=300, deadline=None)
    @given(_search_setups(), st.integers(0, 2**32), st.integers(2, 300))
    def test_same_records_draws_and_state(self, setup, rng_seed, sample_size):
        program, active, frontier, seed = setup
        mutator = Mutator(program, sample_size)
        runs = []
        for search in (Mutator.local_search, _reference_local_search):
            executor = make_executor(program, frontier=active)
            rng = random.Random(rng_seed)
            records = search(mutator, seed, frontier, executor, rng)
            runs.append((records, rng.getstate(), executor))
        (got, got_rng, got_ex), (want, want_rng, want_ex) = runs
        # Local search keeps only the records a root step can fire from: those
        # with a nonzero norm.
        want = {site: rec for site, rec in want.items() if l1_norm(rec.g) > 0}
        assert set(got) == set(want)
        for site, rec in want.items():
            assert got[site].witness == rec.witness
            assert got[site].witness_key == rec.witness_key
            assert got[site].g == rec.g
        assert got_rng == want_rng
        assert (got_ex.execs, got_ex.flips, got_ex.t_ns) == (
            want_ex.execs, want_ex.flips, want_ex.t_ns)
        assert got_ex.corpus.entries == want_ex.corpus.entries
        # best, best_input, pt and tt per site
        assert got_ex.scheduler.stats == want_ex.scheduler.stats

    def test_subgradients_built_only_for_nonzero_replacements(self, monkeypatch):
        # Five always-true guards on every path: each sample reaches every
        # site, and many samples raise some site's best norm.  A slope dict
        # is built once per returned record, for its witness, and never for
        # a record a later sample replaced.
        program = program_from_dict({
            "max_input_len": 5, "entry": 0,
            "nodes": [{"id": i, "kind": "int", "offset": i, "width": 1, "endian": "le",
                       "signed": False, "relation": "le", "constant": 255,
                       "taken": i + 1 if i < 4 else None, "nottaken": None}
                      for i in range(5)],
        })
        sites = set(guard_ids(program))
        seed = bytes([3, 60, 128, 200, 250])
        calls = []

        def counting(*args):
            calls.append(args)
            return compute_subgradient(*args)

        monkeypatch.setattr(mutation, "compute_subgradient", counting)
        executor = make_executor(program, frontier=sites)
        records = Mutator(program, 256).local_search(seed, sites, executor, random.Random(5))
        assert set(records) == sites
        assert len(calls) == len(records)
        assert sorted(call[1] for call in calls) == sorted(rec.witness for rec in records.values())

    def test_stage_with_no_baseline_stops_after_one_chunk(self):
        # The zero seed misses bug_chain's site 1 (it fails the 0xDEAD guard),
        # so no sample can raise a norm there: local search stops after its
        # first chunk, the seed and 31 mutants, and no record fires a root
        # step.
        program = builtin_targets.load("bug_chain")
        executor = make_executor(program, frontier={1})
        Mutator(program, 1024).mutate_stage(bytes(8), {1}, executor, random.Random(0))
        assert executor.execs == _SEARCH_CHUNK == 32

    def test_search_stops_once_every_live_site_has_a_record(self):
        # The zero seed's first chunk gives magic32's one guard a record.  That
        # chunk raised the guard's norm, so the first rule alone would run on;
        # with nothing left to record, the search stops there instead.
        program = builtin_targets.load("magic32")
        executor = make_executor(program, frontier={0})
        records = Mutator(program, 1024).local_search(bytes(8), {0}, executor,
                                                      random.Random(0))
        assert set(records) == {0}
        assert executor.execs == _SEARCH_CHUNK

    # Two 1-byte guards on one path: site 0 is always true (byte 0 <= 255) and
    # stays on the frontier; site 1 is false at the seed (byte 1 = 10 > 9), at
    # distance 1.  Byte 1 = 9 flips it at distance 1 again, so the flip gives
    # it no record.
    TWO_SITES = {
        "max_input_len": 2, "entry": 0,
        "nodes": [{"id": i, "kind": "int", "offset": i, "width": 1, "endian": "le",
                   "signed": False, "relation": "le", "constant": constant,
                   "taken": taken, "nottaken": None}
                  for i, constant, taken in ((0, 255, 1), (1, 9, None))],
    }

    def _scripted_search(self, monkeypatch, mutants):
        """Local search on ``TWO_SITES`` from seed (0, 10), sample size 1024,
        with its planned havoc loop replaced by the given mutants, then the
        seed forever."""
        script = iter(mutants)
        monkeypatch.setattr(mutation, "_havoc_loop",
                            lambda seed, gb, stack_max, *plan: next(script, seed))
        program = program_from_dict(self.TWO_SITES)
        executor = make_executor(program, frontier={0, 1})
        records = Mutator(program, 1024).local_search(bytes([0, 10]), {0, 1}, executor,
                                                      random.Random(0))
        return records, executor

    def test_live_site_with_no_record_keeps_the_search_going(self, monkeypatch):
        # Chunk 1 improves site 0 but never moves site 1, which is still on
        # the frontier: the search goes on into chunk 2, which improves
        # nothing and ends it.
        records, executor = self._scripted_search(monkeypatch, [bytes([1, 10])])
        assert set(records) == {0}
        assert 1 in executor.coverage.frontier
        assert executor.execs == 2 * _SEARCH_CHUNK

    def test_site_flipped_mid_chunk_with_no_record_ends_the_search(self, monkeypatch):
        # Site 1 flips at the third sample with no record and leaves the
        # frontier; site 0, the one live site, has a record, so the search
        # ends with chunk 1.
        records, executor = self._scripted_search(monkeypatch,
                                                  [bytes([1, 10]), bytes([0, 9])])
        assert set(records) == {0}
        assert 1 not in executor.coverage.frontier
        assert executor.execs == _SEARCH_CHUNK

    def test_campaign_ending_mid_chunk_makes_only_the_mutants_it_runs(self, monkeypatch):
        # bug_chain at rng seed 0 covers its last edge with the 14th sample
        # of a stage's first chunk; the rest of that chunk is never made.
        search, havoc = Mutator.local_search, mutation._havoc_loop
        samples, made, ended = [], [], []

        def counting_search(self, seed, frontier, executor, rng):
            before = executor.execs
            try:
                return search(self, seed, frontier, executor, rng)
            except _RunEnded:
                ended.append(executor.execs)
                raise
            finally:
                samples.append(executor.execs - before - 1)  # the seed's run is no sample

        def counting_havoc(*args):
            made.append(args)
            return havoc(*args)

        monkeypatch.setattr(Mutator, "local_search", counting_search)
        monkeypatch.setattr(mutation, "_havoc_loop", counting_havoc)
        program = builtin_targets.load("bug_chain")
        camp = Campaign(program, [bytes(8)], Mode.FOX, Budget(max_execs=100_000), rng_seed=0)
        camp.run()
        assert camp.coverage.complete
        assert ended == [camp.log.records[-1].execs]
        assert (samples[-1] + 1) % _SEARCH_CHUNK != 0  # mid-chunk
        assert len(made) == sum(samples)


def _reference_solve_operand(node, seed, rec):
    """The operand solver as it was when it decoded the operand a second
    time: both operands read with ``int.from_bytes`` on a zero-padded slice,
    an operand-to-difference linkage sampled between them, and an exact
    ``Fraction`` Newton step to the row's zero; the differences and the
    outcome come from ``guard_feedback``.  On the two rows ``f - 1``, whose
    zero the witness's outcome still holds at, the step then descends the
    row until the comparison flips.  The operand is read and written at
    ``node``'s offset in its byte order; kept as the oracle for the solver
    that takes the operand from the difference and writes it at a
    placement."""
    order = "little" if node.endian == "le" else "big"

    def read_operand(data):
        chunk = data[node.offset : node.offset + node.size]
        if len(chunk) < node.size:
            chunk = chunk.ljust(node.size, b"\0")
        return int.from_bytes(chunk, order, signed=node.signed)

    op_seed = read_operand(seed)
    op_wit = read_operand(rec.witness)
    if op_wit == op_seed:
        return None
    f_seed = guard_feedback(node, seed)[1]
    outcome, f_wit = guard_feedback(node, rec.witness)
    linkage = Fraction(f_wit - f_seed, op_wit - op_seed)
    if linkage == 0:
        return None
    slope = row_slope(outcome, node.relation, f_wit) * linkage
    solved = round_half_away(op_wit - Fraction(rec.witness_key, 1) / slope)
    # Where the row's zero still gives the witness's outcome, descend the
    # row past it until the comparison flips.
    f = f_wit + (solved - op_wit) * linkage
    while holds(node.relation, f) == outcome:
        f -= row_slope(outcome, node.relation, f)
    solved = round_half_away(op_wit + (f - f_wit) / linkage)
    bits = 8 * node.size
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if node.signed else (0, (1 << bits) - 1)
    solved = max(lo, min(hi, solved))
    buf = bytearray(rec.witness)
    end = node.offset + node.size
    if end > len(buf):
        buf.extend(b"\0" * (end - len(buf)))
    buf[node.offset:end] = (solved & ((1 << bits) - 1)).to_bytes(node.size, order)
    return bytes(buf)


def _placement(node):
    """Guard ``node``'s own placement: its window's offsets in compare
    order, least significant byte first for an integer."""
    offsets = tuple(range(node.offset, node.offset + node.size))
    return offsets[::-1] if node.endian == "be" else offsets


@st.composite
def _operand_cases(draw, relation):
    """A one-guard integer program of any width, endianness and signedness,
    plus a seed and an equal-length witness that may stop short of the end of
    the operand window but whose operand differs from the seed's, as every
    witness local search keeps a record for does."""
    width = draw(st.sampled_from([1, 2, 4, 8]))
    signed = draw(st.booleans())
    bits = 8 * width
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if signed else (0, (1 << bits) - 1)
    offset = draw(st.integers(0, 3))
    doc = {"max_input_len": offset + width + 2, "entry": 0,
           "nodes": [{"id": 0, "kind": "int", "offset": offset, "width": width,
                      "endian": draw(st.sampled_from(["le", "be"])), "signed": signed,
                      "relation": relation,
                      "constant": draw(st.sampled_from([lo, lo + 1, hi - 1, hi, 0, 1])
                                       | st.integers(lo, hi)),
                      "taken": None, "nottaken": None}]}
    length = draw(st.integers(offset + 1, doc["max_input_len"]))
    inputs = st.lists(_BYTE_VALUES, min_size=length, max_size=length).map(bytes)
    seed = draw(inputs)
    witness = bytearray(draw(inputs))
    window = slice(offset, offset + width)
    if witness[window] == seed[window]:
        witness[offset] ^= draw(st.integers(1, 0xFF))
    return doc, seed, bytes(witness)


class TestOperandSolverAgainstReference:
    @pytest.mark.parametrize("relation", _RELATION_TOKENS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_same_candidate(self, relation, data):
        doc, seed, witness = data.draw(_operand_cases(relation))
        program = program_from_dict(doc)
        harness = Harness(program, synthetic_time=True)
        harness.switch_on({0})
        (seed_key,) = harness.execute(seed).observations.values()
        trace = harness.execute(witness)
        (witness_key,) = trace.observations.values()
        d_seed, d_witness = observation_distance(seed_key), observation_distance(witness_key)
        assume(d_witness != d_seed)  # a record needs a nonzero norm
        rec = SubgradientRecord(compute_subgradient(seed, witness, d_seed, d_witness),
                                witness, witness_key)
        node = program.nodes[0]
        want = _reference_solve_operand(node, seed, rec)
        # The witness's outcome is the edge it took: edge 0 is the taken one.
        root = _ROOTS[0 in trace.edges, node.relation]
        assert _solve(node, witness, _placement(node), root) == want


def test_roots_are_the_newton_step_from_every_consistent_difference():
    # From every difference f the row holds for, the Newton step
    # f - row(f) / slope(f), with the slope +/-1, lands on the row's zero.
    # Where the comparison still gives the outcome there, descending the
    # row on until it flips lands on the root.
    cases = [(outcome, relation, f) for outcome in (False, True) for relation in Relation
             for f in range(-3, 4) if holds(relation, f) == outcome]
    assert len(cases) == 42
    for outcome, relation, f in cases:
        row = _ROWS[outcome, relation]
        zero = f - row(f) * row_slope(outcome, relation, f)
        assert row(zero) == 0, (outcome, relation, f)
        root = zero
        while holds(relation, root) == outcome:
            root -= row_slope(outcome, relation, root)
        assert root == _ROOTS[outcome, relation], (outcome, relation, f)
    # Only the two rows f - 1 have their zero on the witness's side.
    assert {key for key, root in _ROOTS.items() if _ROWS[key](root) != 0} == {
        (False, Relation.LT), (True, Relation.GE)}
    assert {key: root for key, root in _ROOTS.items() if key[1] in (Relation.LT, Relation.GE)
            } == {(False, Relation.LT): -1, (True, Relation.LT): 0,
                  (False, Relation.GE): 0, (True, Relation.GE): -1}


class TestRootsFlipTheirBranch:
    """A closed-form step takes the edge its witness did not, also on the
    two rows ``f - 1``, whose zero lies on the witness's side."""

    @pytest.mark.parametrize("relation,outcome", [("lt", False), ("ge", True)])
    def test_operand_steps_past_the_rows_zero(self, relation, outcome):
        program = program_from_dict({
            "max_input_len": 2, "entry": 0,
            "nodes": [{"id": 0, "kind": "int", "offset": 0, "width": 2, "endian": "le",
                       "signed": False, "relation": relation, "constant": 1000,
                       "taken": None, "nottaken": None}]})
        harness = Harness(program, synthetic_time=True)
        witness = (5000).to_bytes(2, "little")
        assert harness.execute(witness).edges == ((0,) if outcome else (1,))
        node = program.nodes[0]
        candidate = _solve(node, witness, (0, 1), _ROOTS[outcome, node.relation])
        assert int.from_bytes(candidate, "little") == 999
        assert harness.execute(candidate).edges == ((1,) if outcome else (0,))

    @pytest.mark.parametrize("window", [b"MMMM", b"MMMN", b"NMMM", b"ZZZZ"])
    def test_string_window_steps_below_the_constant(self, window):
        program = program_from_dict(TestHotBytes.LT_DOC)
        harness = Harness(program, synthetic_time=True)
        witness = bytes(4) + window + bytes(4)
        assert harness.execute(witness).edges == (1,)
        candidate = _solve(program.nodes[0], witness, (4, 5, 6, 7), _ROOTS[False, Relation.LT])
        assert candidate[4:8] < b"MMMM"
        assert harness.execute(candidate).edges == (0,)

    @pytest.mark.parametrize("relation,outcome", [("lt", False), ("ge", True)])
    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_xor_newton_step_past_the_rows_zero(self, relation, outcome, length, monkeypatch):
        # The seed's window xors to 150 and the witness's to 140 against the
        # constant 100 (f = 40), on a row f - 1, whose zero f = 1 is the
        # witness's own edge.  The stage's one step, at the window the
        # locator places around the changed first byte, goes on past it to
        # f = -1 by rewriting that byte alone.
        program = program_from_dict({
            "max_input_len": length, "entry": 0,
            "nodes": [{"id": 0, "kind": "xor", "offset": 0, "length": length,
                       "relation": relation, "constant": 100, "taken": None, "nottaken": None}]})
        node = program.nodes[0]
        rest = bytes(range(7, 6 + length))
        fold = functools.reduce(operator.xor, rest, 0)
        seed, witness = bytes([150 ^ fold]) + rest, bytes([140 ^ fold]) + rest
        keys = [distance_key(outcome, node.relation, f) for f in (50, 40)]
        rec = SubgradientRecord(compute_subgradient(seed, witness, *keys), witness, keys[1])
        monkeypatch.setattr(Mutator, "local_search", lambda *args: {0: rec})
        executor = make_executor(program, frontier={0})
        ran = []
        run = executor.run
        executor.run = lambda data: ran.append(data) or run(data)
        executor.run(seed)
        Mutator(program, 64).mutate_stage(seed, {0}, executor, random.Random(0))
        assert execute(program, {0}, ran[0]).edges == ((0,) if outcome else (1,))
        assert len(ran) == 2 and ran[1][1:] == rest
        assert functools.reduce(operator.xor, ran[1], 0) == 99
        assert execute(program, {0}, ran[1]).edges == ((1,) if outcome else (0,))
        assert executor.coverage.complete

    @pytest.mark.parametrize("relation", _RELATION_TOKENS)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_operand_candidate_takes_the_other_edge(self, relation, data):
        doc, _, witness = data.draw(_operand_cases(relation))
        program = program_from_dict(doc)
        node = program.nodes[0]
        harness = Harness(program, synthetic_time=True)
        (edge,) = harness.execute(witness).edges
        root = _ROOTS[edge == 0, node.relation]
        half = 1 << (8 * node.size - 1)
        lo, hi = (-half, half - 1) if node.signed else (0, 2 * half - 1)
        assume(lo <= node.constant + root <= hi)
        candidate = _solve(node, witness, _placement(node), root)
        assert harness.execute(candidate).edges == (1 - edge,)


def _flip_root(outcome, relation, f):
    """The Newton step from the difference ``f`` to its row's zero (every
    row's slope is +/-1), then on down the row while the comparison still
    gives the outcome."""
    root = f - _ROWS[outcome, relation](f) * row_slope(outcome, relation, f)
    while holds(relation, root) == outcome:
        root -= row_slope(outcome, relation, root)
    return root


class _ParentMutator(Mutator):
    """The mutator as it was when local search kept a record for every
    frontier site a sample reached, and the root solvers gated each record
    on the seed's key and feedback, with three changes: the seed is first
    zero-extended to the furthest end of a guard's window, its operand, an
    xor window's too, is placed by the brute-force ``locate`` rather than read
    off the guard, and a record fires one candidate per placement, in
    ``locate``'s order, until its site leaves the live frontier (as
    ``Mutator.mutate_stage`` does).  ``_solve_string`` takes each window
    byte's Newton step to its row's zero and, where its comparison still
    gives the witness's outcome there, descends the row until it flips (as
    ``_reference_solve_operand`` does), and ``_solve_xor`` brings the
    window's xor to the constant plus ``_flip_root`` through the
    placement's first byte.  A record with no placement fires nothing.  Its
    local search is ``_reference_local_search`` and its operand solver
    ``_reference_solve_operand`` at the placement; all three solvers sit
    behind the seed-key gate.  Kept as the oracle for the stage that keeps
    only the records a root step can fire from and places operands with no
    exec."""

    def mutate_stage(self, seed: bytes, frontier, executor, rng: random.Random) -> None:
        """One full stage: sample, estimate slopes, and fire the targeted
        inputs of each frontier branch that yielded a usable estimate while
        it is still on the live frontier."""
        window_end = max((n.offset + n.size for n in self.program.nodes
                          if n.kind is not GuardKind.BUG), default=0)
        seed = seed.ljust(window_end, b"\0")
        records = _reference_local_search(self, seed, frontier, executor, rng)
        for site in sorted(records):
            if site not in executor.coverage.frontier:
                continue
            rec = records[site]
            node = self.program.nodes[site]
            outcome = guard_feedback(node, rec.witness)[0]
            candidates = []
            if rec.seed_key is not None:
                for offsets in locate(node, outcome, seed, rec.witness, rec.witness_key,
                                      self.program.max_input_len):
                    if node.kind is GuardKind.STR:
                        candidates.append(self._solve_string(node, outcome, rec, offsets))
                    elif node.kind is GuardKind.XOR:
                        candidates.append(self._solve_xor(node, outcome, rec, offsets))
                    else:
                        candidates.append(self._solve_operand(node, seed, rec, offsets))
            for candidate in candidates:
                if site not in executor.coverage.frontier:
                    break
                if candidate != rec.witness:
                    executor.run(candidate)

    def _solve_string(self, node, outcome, rec: _SeedKeyedRecord, offsets) -> bytes:
        """Per-byte root solving over the window at ``offsets``, from the
        witness's outcome."""
        diffs = guard_feedback(node._replace(offset=offsets[0]), rec.witness)[1]
        buf = bytearray(rec.witness.ljust(offsets[-1] + 1, b"\0"))
        # Positions past the window are padding, with no input byte to solve.
        for offset, f in zip(offsets, diffs):
            root = _flip_root(outcome, node.relation, f)
            buf[offset] = _clamp_byte(buf[offset] + root - f)
        return bytes(buf)

    def _solve_xor(self, node, outcome, rec: _SeedKeyedRecord, offsets) -> bytes:
        """The witness with the xor window at ``offsets`` brought to the
        constant plus its difference's flip root, clamped to a byte, by
        changing the placement's first byte alone."""
        f = guard_feedback(node._replace(offset=min(offsets)), rec.witness)[1]
        target = max(0, min(255, node.constant + _flip_root(outcome, node.relation, f)))
        buf = bytearray(rec.witness)
        buf[offsets[0]] ^= (node.constant + f) ^ target
        return bytes(buf)

    def _solve_operand(self, node, seed: bytes, rec: _SeedKeyedRecord, offsets) -> bytes:
        """The operand solver with the guard moved to the placement."""
        endian = "le" if offsets[0] == min(offsets) else "be"
        return _reference_solve_operand(node._replace(offset=min(offsets), endian=endian),
                                        seed, rec)


def _reference_mutate_stage(program, sample_size, seed, frontier, executor, rng):
    _ParentMutator(program, sample_size).mutate_stage(seed, frontier, executor, rng)


class TestMutateStageAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(_search_setups(), st.integers(0, 2**32), st.integers(2, 300))
    def test_same_execs_draws_and_state(self, setup, rng_seed, sample_size):
        program, active, frontier, seed = setup
        runs = []
        for stage in (Mutator(program, sample_size).mutate_stage,
                      lambda *args: _reference_mutate_stage(program, sample_size, *args)):
            executor = make_executor(program, frontier=active)
            ran = []
            execute = executor.harness.execute

            def recording(data, execute=execute, ran=ran):
                ran.append(data)
                return execute(data)

            executor.harness.execute = recording
            rng = random.Random(rng_seed)
            stage(seed, frontier, executor, rng)
            runs.append((ran, rng.getstate(), executor))
        (got, got_rng, got_ex), (want, want_rng, want_ex) = runs
        assert got == want
        assert got_rng == want_rng
        assert (got_ex.execs, got_ex.flips, got_ex.t_ns) == (
            want_ex.execs, want_ex.flips, want_ex.t_ns)
        assert got_ex.corpus.entries == want_ex.corpus.entries
        assert got_ex.scheduler.stats == want_ex.scheduler.stats

    # Whole fox campaigns reach the cases a lone stage rarely does: several
    # records per stage, string records with no hot window, and root steps
    # that land on their witness.
    @pytest.mark.parametrize("name", builtin_targets.names())
    def test_same_fox_campaigns_on_builtins(self, name):
        program = builtin_targets.load(name)
        for sample_size in (16, 64, 1024):
            for rng_seed in range(3):
                _assert_same_fox_campaign(program, sample_size, rng_seed, 5_000)

    @settings(max_examples=60, deadline=None)
    @given(_documents(), st.integers(0, 2**32), st.integers(2, 300))
    def test_same_fox_campaigns_on_generated_programs(self, doc, rng_seed, sample_size):
        _assert_same_fox_campaign(program_from_dict(doc), sample_size, rng_seed, 2_000)


def _assert_same_fox_campaign(program, sample_size, rng_seed, max_execs):
    """A fox campaign runs the same inputs and ends in the same state with
    the reference stage as with ``Mutator.mutate_stage``.  Neither may stop
    on an error: the string solver, whose hot window can be misplaced past
    the input's end, must not build a candidate longer than
    ``max_input_len``."""
    runs = []
    for mutator_class in (Mutator, _ParentMutator):
        camp = Campaign(program, [bytes(program.max_input_len)], Mode.FOX,
                        Budget(max_execs=max_execs), sample_size, rng_seed)
        camp.mutator = mutator_class(program, sample_size)
        ran = []
        execute = camp.harness.execute

        def recording(data, execute=execute, ran=ran):
            ran.append(data)
            return execute(data)

        camp.harness.execute = recording
        camp.run()
        runs.append((ran, camp.log.to_jsonl(), camp.corpus.entries, camp.findings,
                     camp.scheduler.stats))
    got, want = runs
    assert got[0] == want[0]
    assert got[1:] == want[1:]


class TestHotBytes:
    """The locator places an operand with no exec: each case runs the true
    guard once for the witness's outcome and key, and then any exec fails
    the test."""

    MAGI_DOC = {
        "max_input_len": 12,
        "entry": 0,
        "nodes": [{"id": 0, "kind": "str", "offset": 4, "length": 4,
                   "relation": "eq",
                   "constant": base64.b64encode(b"MAGI").decode(),
                   "taken": None, "nottaken": None}],
    }

    LT_DOC = {
        "max_input_len": 12,
        "entry": 0,
        "nodes": [{"id": 0, "kind": "str", "offset": 4, "length": 4,
                   "relation": "lt",
                   "constant": base64.b64encode(b"MMMM").decode(),
                   "taken": None, "nottaken": None}],
    }

    @staticmethod
    def locate(doc, seed, witness, monkeypatch, node=None):
        """The placements of guard 0 of ``doc`` (or of ``node``, a copy of it
        that the locator reads instead) in ``witness``."""
        program = program_from_dict(doc)
        harness = Harness(program, synthetic_time=True)
        harness.switch_on({0})
        trace = harness.execute(witness)

        def no_exec(*args):
            raise AssertionError("the locator ran an input")

        monkeypatch.setattr(Harness, "execute", no_exec)
        return infer_hot_bytes(node or program.nodes[0], 0 in trace.edges, seed, witness,
                               trace.observations[0], program.max_input_len)

    def test_window_located_with_no_exec(self, monkeypatch):
        mutant = bytearray(12)
        mutant[1] = 7
        mutant[5] = 66
        assert self.locate(self.MAGI_DOC, bytes(12), bytes(mutant), monkeypatch) == [(4, 5, 6, 7)]

    def test_identical_mutant_yields_empty_set(self, monkeypatch):
        assert self.locate(self.MAGI_DOC, bytes(12), bytes(12), monkeypatch) == []

    def test_differences_outside_window_yield_empty_set(self, monkeypatch):
        mutant = bytearray(bytes(12))
        mutant[1] = 7
        mutant[9] = 3  # past the compared window
        assert self.locate(self.MAGI_DOC, bytes(12), bytes(mutant), monkeypatch) == []

    @pytest.mark.parametrize("window", [b"MMAM", b"MMMZ", b"MMAZ"])
    def test_flipped_witness_gets_its_window(self, window, monkeypatch):
        # "MMAM" and "MMAZ" are below "MMMM" and "MMMZ" is not: the locator
        # reads each key under its own row, whichever edge the seed took.
        seed = bytes(4) + b"MMMM" + bytes(4)
        assert self.locate(self.LT_DOC, seed, bytes(4) + window + bytes(4),
                           monkeypatch) == [(4, 5, 6, 7)]

    @pytest.mark.parametrize("window", [b"ML", b"MP"])
    def test_flipped_witness_gets_its_two_byte_window(self, window, monkeypatch):
        # "MO" < "MM" is false, "ML" < "MM" true and "MP" < "MM" false.  The
        # keys are (1, (0, 1)) and (3, (-1, 2)): the window at (5, 6) would
        # need an "M" at byte 5.
        doc = {"max_input_len": 8, "entry": 0,
               "nodes": [{"id": 0, "kind": "str", "offset": 4, "length": 2, "relation": "lt",
                          "constant": base64.b64encode(b"MM").decode(),
                          "taken": None, "nottaken": None}]}
        seed = bytes(4) + b"MO" + bytes(2)
        assert self.locate(doc, seed, bytes(4) + window + bytes(2), monkeypatch) == [(4, 5)]

    def test_every_matching_window_is_placed_in_start_order(self, monkeypatch):
        # The guard reads "MAGJ", one off "MAGI" in its last byte, and so
        # does "MAGH" at byte 0: an equality's row folds the sign away.
        witness = b"MAGHMAGJ" + bytes(4)
        assert self.locate(self.MAGI_DOC, bytes(12), witness, monkeypatch) == [
            (0, 1, 2, 3), (4, 5, 6, 7)]

    def test_integer_placed_in_both_byte_orders(self, monkeypatch):
        # The guard reads 0x0103, one above its constant 0x0102, and so does
        # the big-endian window at byte 2; 0x0101, one below, reads the same
        # in both byte orders, so its window gives two placements.
        doc = {"max_input_len": 6, "entry": 0,
               "nodes": [{"id": 0, "kind": "int", "offset": 0, "width": 2, "endian": "le",
                          "signed": False, "relation": "eq", "constant": 0x0102,
                          "taken": None, "nottaken": None}]}
        witness = b"\x03\x01\x01\x03\x00\x00"
        assert self.locate(doc, bytes(6), witness, monkeypatch) == [
            (0, 1), (1, 2), (2, 1), (3, 2)]

    def test_guard_offset_and_byte_order_are_not_read(self, monkeypatch):
        # The locator is handed the guard at the wrong offset and in the
        # wrong byte order, and still places it where the walk reads it.
        doc = {"max_input_len": 8, "entry": 0,
               "nodes": [{"id": 0, "kind": "int", "offset": 3, "width": 4, "endian": "be",
                          "signed": True, "relation": "lt", "constant": -5,
                          "taken": None, "nottaken": None}]}
        node = program_from_dict(doc).nodes[0]._replace(offset=0, endian="le")
        witness = bytes(3) + (1234).to_bytes(4, "big") + bytes(1)
        assert self.locate(doc, bytes(8), witness, monkeypatch, node) == [(6, 5, 4, 3)]

    def test_placement_past_max_input_len_is_dropped(self, monkeypatch):
        # A big-endian u16 below 256 reads as (0, x); read little-endian
        # from x, the zero-extended window (x, 0) gives it too, but ends at
        # byte 3, past max_input_len.
        doc = {"max_input_len": 2, "entry": 0,
               "nodes": [{"id": 0, "kind": "int", "offset": 0, "width": 2, "endian": "be",
                          "signed": False, "relation": "lt", "constant": 0,
                          "taken": None, "nottaken": None}]}
        assert self.locate(doc, bytes(2), b"\x00\x07", monkeypatch) == [(1, 0)]
        node = program_from_dict(doc).nodes[0]
        key = distance_key(False, Relation.LT, 7)
        assert infer_hot_bytes(node, False, bytes(2), b"\x00\x07", key, 3) == [(1, 0), (1, 2)]

    def test_covered_branch_still_gets_its_window(self, monkeypatch):
        # The locator reads no coverage: a branch off the frontier gets its
        # window too, and ``mutate_stage`` is what skips it.
        seed = bytes(4) + b"MMMM" + bytes(4)
        assert self.locate(self.LT_DOC, seed, bytes(4) + b"MMMZ" + bytes(4),
                           monkeypatch) == [(4, 5, 6, 7)]

    @staticmethod
    def xor_doc(offset, length, relation, constant, max_input_len):
        return {"max_input_len": max_input_len, "entry": 0,
                "nodes": [{"id": 0, "kind": "xor", "offset": offset, "length": length,
                           "relation": relation, "constant": constant,
                           "taken": None, "nottaken": None}]}

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 6])
    def test_xor_window_placed_and_solved(self, length, monkeypatch):
        # Windows of up to four bytes are xored by index in the walk, and a
        # 6-byte one is folded with reduce; the locator folds every window.
        # The window xors to 0x5E, one off its constant.
        doc = self.xor_doc(2, length, "eq", 0x5D, length + 4)
        head = bytes(0x11 * (i + 1) for i in range(length - 1))
        last = 0x5E
        for byte in head:
            last ^= byte
        witness = bytes(2) + head + bytes([last]) + bytes(2)
        window = tuple(range(2, 2 + length))
        assert self.locate(doc, bytes(length + 4), witness, monkeypatch) == [window]
        program = program_from_dict(doc)
        candidate = _solve(program.nodes[0], witness, window, _ROOTS[False, Relation.EQ])
        # Only the placement's first byte moves, and the input keeps its length.
        assert len(candidate) == len(witness)
        assert [j for j, (a, b) in enumerate(zip(witness, candidate)) if a != b] == [2]
        assert execute(program, {0}, candidate).edges == (0,)

    @pytest.mark.parametrize("relation", list(Relation))
    @pytest.mark.parametrize("outcome", [False, True])
    def test_xor_window_placed_under_every_row(self, relation, outcome, monkeypatch):
        # The window at 1..3 xors to 100 + f against the constant 100; no
        # other window around a changed byte gives the same key.
        f = next(f for f in (0, 1, -1, 2, -2) if holds(relation, f) == outcome)
        doc = self.xor_doc(1, 3, relation.value, 100, 6)
        witness = bytes([0, 0x11, 0x22, (100 + f) ^ 0x33, 0, 0])
        assert guard_feedback(program_from_dict(doc).nodes[0], witness) == (outcome, f)
        assert self.locate(doc, bytes(6), witness, monkeypatch) == [(1, 2, 3)]

    def test_xor_placement_lists_its_first_changed_byte_first(self, monkeypatch):
        # The guard's window (1, 2) holds an unchanged 7 before the changed
        # byte 2, which comes first, and is the one byte the solver rewrites.
        doc = self.xor_doc(1, 2, "eq", 0x37, 4)
        witness = b"\x00\x07\x30\x00"
        assert self.locate(doc, b"\x00\x07\x00\x00", witness, monkeypatch) == [(2, 1)]
        program = program_from_dict(doc)
        candidate = _solve(program.nodes[0], witness, (2, 1), _ROOTS[True, Relation.EQ])
        assert candidate == b"\x00\x07\x3f\x00"
        assert execute(program, {0}, candidate).edges == (1,)

    def test_every_matching_xor_window_is_placed_in_start_order(self, monkeypatch):
        # The guard's window (4, 5) xors to 0x40, one below its constant
        # 0x41, and the window (0, 1) to 0x42, one above: an equality's row
        # folds the sign away.
        doc = self.xor_doc(4, 2, "eq", 0x41, 8)
        witness = b"\x42\x00\x00\x00\x20\x60\x00\x00"
        assert self.locate(doc, bytes(8), witness, monkeypatch) == [(0, 1), (4, 5)]

    def test_xor_placement_past_max_input_len_is_dropped(self, monkeypatch):
        # The zero-extended window (1, 2) xors to 7, as the guard's own
        # window (0, 1) does, but ends at byte 3, past max_input_len.
        doc = self.xor_doc(0, 2, "eq", 0x10, 2)
        assert self.locate(doc, bytes(2), b"\x00\x07", monkeypatch) == [(1, 0)]
        node = program_from_dict(doc).nodes[0]
        key = distance_key(False, Relation.EQ, 7 - 0x10)
        assert infer_hot_bytes(node, False, bytes(2), b"\x00\x07", key, 3) == [(1, 0), (1, 2)]

    def test_unequal_lengths_rejected_before_any_exec(self, monkeypatch):
        with pytest.raises(ValueError, match="equal-length"):
            self.locate(self.MAGI_DOC, bytes(8), bytes(12), monkeypatch)

    @pytest.mark.parametrize("stream", range(4))
    def test_matches_the_reference_locator(self, stream):
        # Widths 1/2/4/8, signed operands, both byte orders, all twelve rows,
        # string constants shorter and longer than their window and witnesses
        # that change their last byte: compare_locator checks that each
        # comes up.
        assert compare_locator(2000, stream) > 0

    @settings(max_examples=200, deadline=None)
    @given(_operand_cases("eq"), st.sampled_from(_RELATION_TOKENS))
    def test_matches_the_reference_locator_on_drawn_operands(self, case, relation):
        doc, seed, witness = case
        doc["nodes"][0]["relation"] = relation
        node = program_from_dict(doc).nodes[0]
        outcome, feedback = guard_feedback(node, witness)
        key = distance_key(outcome, node.relation, feedback)
        placements = infer_hot_bytes(node, outcome, seed, witness, key, doc["max_input_len"])
        assert placements == locate(node, outcome, seed, witness, key, doc["max_input_len"])
        assert _placement(node) in placements


def _own_window_checked_search(kinds):
    """``Mutator.local_search``, checking that the locator places each
    record it returns at its guard's own window (an xor window's bytes in
    any order), with the witness's outcome, which for a site still on the
    frontier is also the one coverage gives; ``kinds`` counts the records
    by guard kind."""
    search = Mutator.local_search

    def checked_search(self, seed, frontier, executor, rng):
        records = search(self, seed, frontier, executor, rng)
        coverage = executor.coverage
        for site, rec in records.items():
            node = self.program.nodes[site]
            outcome = guard_feedback(node, rec.witness)[0]
            if site in coverage.frontier:
                assert outcome == (2 * site in coverage.edge_hits)
            own = _placement(node)
            placements = infer_hot_bytes(node, outcome, seed, rec.witness, rec.witness_key,
                                         self.program.max_input_len)
            assert own in placements or node.kind is GuardKind.XOR and any(
                sorted(p) == list(own) for p in placements), (site, placements)
            kinds[node.kind] += 1
        return records

    return checked_search


class TestMutateStage:
    def test_magic32_flips_within_one_stage(self):
        flips = 0
        for rng_seed in range(10):
            program = builtin_targets.load("magic32")
            executor = make_executor(program, frontier={0})
            mutator = Mutator(program, 1024)
            before = executor.execs
            mutator.mutate_stage(bytes(8), {0}, executor, random.Random(rng_seed))
            assert executor.execs - before <= 1024 + 4
            flips += executor.coverage.complete
        assert flips >= 9

    def test_magic_string_flips_within_one_stage(self):
        flips = 0
        for rng_seed in range(10):
            program = builtin_targets.load("magic_str8")
            executor = make_executor(program, frontier={0})
            mutator = Mutator(program, 1024)
            mutator.mutate_stage(bytes(16), {0}, executor, random.Random(rng_seed))
            flips += executor.coverage.complete
        assert flips >= 9

    def test_empty_frontier_runs_no_newton(self):
        program = builtin_targets.load("le15")
        executor = make_executor(program, frontier=frozenset())
        mutator = Mutator(program, 32)
        mutator.mutate_stage(bytes([5]), frozenset(), executor, random.Random(0))
        assert executor.execs == 32  # the samples alone, no root step

    def test_xor_stage_completes_without_guarantee(self, monkeypatch):
        program = builtin_targets.load("xor_guard")
        executor = make_executor(program, frontier={0})
        mutator = Mutator(program, 64)
        local_search = Mutator.local_search
        sampled = []

        def counting_local_search(self, seed, frontier, executor, rng):
            before = executor.execs
            records = local_search(self, seed, frontier, executor, rng)
            sampled.append(executor.execs - before)
            return records

        monkeypatch.setattr(Mutator, "local_search", counting_local_search)
        mutator.mutate_stage(bytes(8), {0}, executor, random.Random(0))
        # The first chunk gives the one live guard a record, which ends the
        # search there; the stage's root steps then flip the guard.
        assert sampled == [32]
        assert executor.coverage.complete

    def test_xor_flips_within_one_stage(self):
        for rng_seed in range(10):
            program = builtin_targets.load("xor_guard")
            executor = make_executor(program, frontier={0})
            Mutator(program, 1024).mutate_stage(bytes(8), {0}, executor, random.Random(rng_seed))
            assert executor.coverage.complete, rng_seed

    def test_every_record_places_its_own_window(self, monkeypatch):
        # In fox campaigns on the suite and on two generated programs, the
        # locator places every record local search keeps, at its guard's own
        # window among others: the stage's one root step has a placement.
        monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "benchmarks"))
        import genprog

        kinds = collections.Counter()
        monkeypatch.setattr(Mutator, "local_search", _own_window_checked_search(kinds))
        programs = [builtin_targets.load(name) for name in builtin_targets.SUITE]
        programs += [program_from_dict(genprog.program(seed)) for seed in (1, 2)]
        for program in programs:
            for rng_seed in range(3):
                Campaign(program, [bytes(program.max_input_len)], Mode.FOX,
                         Budget(max_execs=3_000), rng_seed=rng_seed).run()
        assert set(kinds) == {GuardKind.INT, GuardKind.STR, GuardKind.XOR}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_record_places_its_own_window_on_drawn_guards(self, data):
        # One guard of any kind, relation, width, byte order and signedness,
        # whose window may end at max_input_len, and a seed of any length up
        # to it: the stage zero-extends the seed, so every record's witness
        # moved a byte of the guard's own window.
        node = data.draw(_guard(0))
        node.update(taken=None, nottaken=None)
        window_end = node["offset"] + node.get("width", node.get("length"))
        doc = {"max_input_len": window_end + data.draw(st.integers(0, 2)), "entry": 0,
               "nodes": [node]}
        program = program_from_dict(doc)
        seed = data.draw(st.binary(min_size=1, max_size=doc["max_input_len"]))
        mutator = Mutator(program, data.draw(st.integers(2, 64)))
        mutator.local_search = types.MethodType(
            _own_window_checked_search(collections.Counter()), mutator)
        executor = make_executor(program, frontier={0})
        mutator.mutate_stage(seed, {0}, executor, random.Random(data.draw(st.integers(0, 2**32))))

    @pytest.mark.parametrize("name", builtin_targets.SUITE)
    def test_fox_covers_from_a_one_byte_seed(self, name):
        # Local search never resizes: from a seed that stops short of a
        # guard's window, the stage must zero-extend it first, or no sample
        # moves that guard and fox never falls back to havoc.
        program = builtin_targets.load(name)
        camp = Campaign(program, [b"\0"], Mode.FOX, Budget(max_execs=20_000))
        camp.run()
        assert camp.coverage.complete

    def test_budget_bound(self, monkeypatch):
        # Local search takes at most sample_size execs, and every other exec
        # of the stage is a candidate fired at a placement the locator found.
        # The seed takes the root's taken edge to the string guard, which
        # local search cannot flip alone.
        program = builtin_targets.load("mixed_tree")
        executor = make_executor(program, frontier={0, 1, 2})
        mutator = Mutator(program, 256)
        infer = mutation.infer_hot_bytes
        placed, sampled, fired = [], [], []

        def counting_infer(*args):
            placed.append(infer(*args))
            return placed[-1]

        local_search = Mutator.local_search

        def counting_local_search(self, seed, frontier, executor, rng):
            records = local_search(self, seed, frontier, executor, rng)
            sampled.append(executor.execs)
            run = executor.run
            executor.run = lambda data: fired.append(data) or run(data)
            return records

        monkeypatch.setattr(mutation, "infer_hot_bytes", counting_infer)
        monkeypatch.setattr(Mutator, "local_search", counting_local_search)
        mutator.mutate_stage(b"\xe8\x03" + bytes(6), {0, 1, 2}, executor, random.Random(3))
        assert sampled[0] <= 256
        assert executor.execs == sampled[0] + len(fired)
        assert 1 <= len(fired) <= sum(map(len, placed))

    @pytest.mark.parametrize("name", ["magic32", "magic32_be", "mixed_tree"])
    def test_wrong_offset_and_endian_still_flip_within_one_stage(self, name):
        # The mutator is handed the program with every guard moved one byte
        # on and its byte order swapped, while the executor walks the true
        # one: the locator, not the guard, says where the operand lies.
        program = builtin_targets.load(name)
        room = program.max_input_len
        misplaced = GuardProgram(
            [n._replace(offset=(n.offset + 1) % (room - n.size + 1),
                        endian="be" if n.endian == "le" else "le") for n in program.nodes],
            program.entry, room)
        flips = 0
        for rng_seed in range(10):
            executor = make_executor(program, frontier={0})
            Mutator(misplaced, 1024).mutate_stage(bytes(room), {0}, executor,
                                                   random.Random(rng_seed))
            flips += 0 not in executor.coverage.frontier
        assert flips >= 9

    @pytest.mark.parametrize("relation,constant", [
        ("lt", 40), ("le", 40), ("gt", 200), ("ge", 200), ("eq", 77), ("ne", 0),
    ])
    def test_linear_one_byte_guards_fully_covered_in_one_stage(self, relation, constant):
        doc = {"max_input_len": 2, "entry": 0,
               "nodes": [{"id": 0, "kind": "int", "offset": 0, "width": 1,
                          "endian": "le", "signed": False, "relation": relation,
                          "constant": constant, "taken": None, "nottaken": None}]}
        program = program_from_dict(doc)
        executor = make_executor(program, frontier={0})
        mutator = Mutator(program, 128)
        mutator.mutate_stage(bytes(2), {0}, executor, random.Random(11))
        assert executor.coverage.complete

    def test_string_window_past_the_input_end_builds_no_overlong_candidate(self):
        # A window starting at the input's last byte would end past
        # max_input_len; the locator places none there.
        doc = {"max_input_len": 2, "entry": 0,
               "nodes": [{"id": 0, "kind": "str", "offset": 0, "relation": "le",
                          "length": 2, "constant": "AA==", "taken": 1, "nottaken": None},
                         {"id": 1, "kind": "bug"}]}
        program = program_from_dict(doc)
        camp = Campaign(program, [bytes(2)], Mode.FOX, Budget(max_execs=2000),
                        sample_size=2, rng_seed=1)
        camp.run()
        assert camp.coverage.complete

    def test_integer_window_past_the_input_end_builds_no_overlong_candidate(self):
        # Guard 1 reads a big-endian u16 (0, x) that never flips; read
        # little-endian from x, the zero-extended window (x, 0) gives the
        # same key but ends past max_input_len.  Firing it would end the
        # run with an overlong input.
        doc = {"max_input_len": 2, "entry": 0,
               "nodes": [{"id": 0, "kind": "int", "offset": 0, "width": 1, "endian": "le",
                          "signed": False, "relation": "eq", "constant": 0,
                          "taken": 1, "nottaken": None},
                         {"id": 1, "kind": "int", "offset": 0, "width": 2, "endian": "be",
                          "signed": False, "relation": "lt", "constant": 0,
                          "taken": None, "nottaken": None}]}
        program = program_from_dict(doc)
        camp = Campaign(program, [bytes(2)], Mode.FOX, Budget(max_execs=2000),
                        sample_size=2, rng_seed=1)
        camp.run()
        assert camp.log.records[-1].execs == 2000
        assert camp.coverage.edge_hits == {0, 1, 3}


def _stage_candidate(program, seed, rec):
    """The stage's candidate for a record of guard 0 of a one-guard
    ``program`` from ``seed``: ``_solve`` at the one placement
    ``infer_hot_bytes`` finds, with ``_ROOTS``, from the witness's outcome."""
    node = program.nodes[0]
    outcome = guard_feedback(node, rec.witness)[0]
    (offsets,) = infer_hot_bytes(node, outcome, seed, rec.witness, rec.witness_key,
                                 program.max_input_len)
    return _solve(node, rec.witness, offsets, _ROOTS[outcome, node.relation])


class TestLinearExactness:
    @pytest.mark.parametrize("relation,constant", [
        ("lt", 60), ("le", 60), ("gt", 180), ("ge", 180),
    ])
    @pytest.mark.parametrize("seed_byte", [0, 59, 61, 130, 255])
    def test_affine_one_byte_guard_step_lands_at_boundary(self, relation, constant, seed_byte):
        # Whenever local search finds a nonzero slope on a guard whose
        # distance is affine in one byte, the root step flips the guard and
        # lands within one unit of the boundary.
        doc = {"max_input_len": 1, "entry": 0,
               "nodes": [{"id": 0, "kind": "int", "offset": 0, "width": 1,
                          "endian": "le", "signed": False, "relation": relation,
                          "constant": constant, "taken": None, "nottaken": None}]}
        program = program_from_dict(doc)
        executor = make_executor(program, frontier={0})
        mutator = Mutator(program, 64)
        seed = bytes([seed_byte])
        records = mutator.local_search(seed, {0}, executor, random.Random(17))
        rec = records.get(0)
        if rec is None:
            pytest.skip("no usable slope sampled")
        out = _stage_candidate(program, seed, rec)
        node = program.nodes[0]
        outcome, f = guard_feedback(node, out)
        assert outcome != guard_feedback(node, rec.witness)[0]
        assert abs(f) <= 1


class TestRootCorrespondence:
    @pytest.mark.parametrize("witness_byte", [0, 3, 5, 11, 15])
    def test_prediction_lands_on_flip_boundary(self, witness_byte):
        # On the boundary guard the pre-flip distance is 16 - x with slope
        # -1, so the Newton root prediction is 16 from anywhere on the true
        # side, and the stage's candidate lands there too.
        program = le15_program()
        harness = Harness(program, synthetic_time=True)
        harness.switch_on({0})
        witness = bytes([witness_byte])
        (key,) = harness.execute(witness).observations.values()
        predicted = fraction_newton_step(witness, observation_distance(key), {0: Fraction(-1)})
        assert predicted == bytes([16])
        rec = SubgradientRecord({0: Fraction(-1)}, witness, key)
        candidate = _stage_candidate(program, bytes([witness_byte + 1]), rec)
        assert candidate == predicted
        assert harness.execute(candidate).edges == (1,)


class TestNewtonTendency:
    def test_distance_not_increased_on_convex_guard(self):
        # Soft property: on a linear guard the targeted input's distance is
        # at most the witness's in nearly all trials.
        program = le15_program()
        wins = trials = 0
        for rng_seed in range(40):
            executor = make_executor(program, frontier={0})
            mutator = Mutator(program, 32)
            records = mutator.local_search(bytes([5]), {0}, executor,
                                           random.Random(rng_seed))
            rec = records.get(0)
            if rec is None:
                continue
            trials += 1
            out = _stage_candidate(program, bytes([5]), rec)
            harness = Harness(program, synthetic_time=True)
            harness.switch_on({0})
            (key,) = harness.execute(out).observations.values()
            d_out = abs(observation_distance(key))
            d_wit = abs(observation_distance(rec.witness_key))
            wins += d_out <= d_wit
        assert trials > 0
        assert wins / trials >= 0.95
