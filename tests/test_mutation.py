import base64
import collections
import itertools
import math
import random
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
    _INV,
    _SEARCH_CHUNK,
    _SEARCH_STACK,
    Mutator,
    SubgradientRecord,
    compute_subgradient,
    havoc_mutate,
    infer_hot_bytes,
    _clamp_byte,
    _row_slope,
    newton_step,
    round_half_away,
)
from frontierfuzz.target import GuardKind, Harness, guard_feedback, program_from_dict
from reference import guard_ids
from test_target import _BYTE_VALUES, _RELATION_TOKENS, _documents


def l1_norm(g: dict[int, Fraction]) -> Fraction:
    return sum((abs(v) for v in g.values()), Fraction(0))


class ScriptedRng(random.Random):
    """Deterministic rng double that plays back scripted ``getrandbits``
    draws, each given as (expected bit width, value); ``randrange`` draws
    through them too."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def getrandbits(self, k):
        width, value = self.draws.pop(0)
        assert k == width
        return value


class OpPinnedRng(random.Random):
    """A seeded rng whose every 30-bit draw has ``index`` as its residue
    modulo ``n_ops``.  Under ``stack_max=1`` the stack depth ignores it, so
    every havoc call applies operator ``index`` with all other fields drawn
    at random."""

    def __init__(self, seed, index, n_ops):
        super().__init__(seed)
        self.index, self.n_ops = index, n_ops

    def getrandbits(self, k):
        r = super().getrandbits(k)
        if k == 30:
            r += self.index - r % self.n_ops
            if r >= 1 << 30:
                r -= self.n_ops
        return r


class _Word:
    """One operator's 30-bit draw, read one field at a time."""

    def __init__(self, rng):
        self.rng = rng
        self.rest = rng.getrandbits(30)
        self.span = 1  # product of the ranges read so far

    def field(self, m):
        self.span *= m
        value = self.rest % m
        self.rest //= m
        return value

    def fits(self, m):
        return self.span * m <= 2 ** 20

    def ranged(self, m, carve):
        return self.field(m) if carve else self.rng.randrange(m)


def _reference_havoc(seed, rng, stack_max, max_len=None):
    """``havoc_mutate``'s draw contract, one field at a time and with no
    tables: the oracle for its carving order, ranges and carving bound."""
    if not seed:
        raise ValueError("seed must be nonempty")
    budget = 4
    ops = [0, 1, 2, 3, 4, 5]
    if max_len is not None:
        ops.extend((6, 7))
    buf = bytearray(seed)
    orig_len = len(seed)
    for _ in range(rng.getrandbits(30) % stack_max + 1):
        word = _Word(rng)
        op = ops[word.field(len(ops))]
        n = len(buf)
        if op == 0:  # bit flip
            bit = word.field(8)
            buf[word.ranged(n, word.fits(n))] ^= 1 << bit
        elif op == 1:  # byte set
            value = word.field(256)
            buf[word.ranged(n, word.fits(n))] = value
        elif op == 2:  # byte add/sub
            sign = word.field(2)
            delta = word.field(_ARITH_MAX) + 1
            pos = word.ranged(n, word.fits(n))
            buf[pos] = (buf[pos] + (delta if sign else -delta)) & 0xFF
        elif op == 3:  # interesting value substitution
            widths = [w for w in (1, 2, 4) if w <= n and w <= budget]
            w = widths[word.field(len(widths))]
            order = ("little", "big")[word.field(2)]
            value = _INTERESTING[w][word.field(len(_INTERESTING[w]))]
            pos = word.ranged(n - w + 1, word.fits(n - w + 1))
            buf[pos:pos + w] = (value & ((1 << (8 * w)) - 1)).to_bytes(w, order)
        elif op == 4:  # block overwrite
            m = min(budget, n)
            carve = word.fits(m * n)
            blen = word.ranged(m, carve) + 1
            pos = word.ranged(n - blen + 1, carve)
            buf[pos:pos + blen] = rng.getrandbits(8 * blen).to_bytes(blen, "little")
        elif op == 5:  # byte swap
            if n >= 2:
                carve = word.fits(n * n)
                i = word.ranged(n, carve)
                j = word.ranged(n, carve)
                buf[i], buf[j] = buf[j], buf[i]
        elif op == 6:  # delete block
            m = min(budget + (n - orig_len), n - 1, budget)
            if m >= 1:
                carve = word.fits(m * n)
                blen = word.ranged(m, carve) + 1
                pos = word.ranged(n - blen + 1, carve)
                del buf[pos:pos + blen]
        else:  # insert block
            m = budget - (n - orig_len)
            if max_len is not None:
                m = min(m, max_len - n)
            if m >= 1:
                carve = word.fits(m * (n + 1))
                blen = word.ranged(m, carve) + 1
                pos = word.ranged(n + 1, carve)
                buf[pos:pos] = rng.getrandbits(8 * blen).to_bytes(blen, "little")
        assert word.span <= 2 ** 20
    return bytes(buf)


def _single_op(seed, op, samples, *, max_len=None, rng_seed=0):
    """``samples`` havoc mutants of ``seed`` that each apply operator ``op``
    once; the resize operators 6 and 7 are drawn exactly when ``max_len`` is
    given."""
    rng = OpPinnedRng(rng_seed, op, 8 if max_len is not None else 6)
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
        # lengths.  The long lengths straddle every carving threshold, so both
        # the carved and the exact draws of every field are compared.  Each
        # case seeds its own seed bytes and draw streams.
        pick = random.Random(stream)
        fast, slow = random.Random(7 * stream), random.Random(7 * stream)
        lengths = list(range(1, 41)) + [300, 419, 600, 1_500, 2_500, 20_000, 40_000]
        calls = 0
        for stack_max in (1, _SEARCH_STACK, _BATCH_STACK):
            for cap in ("none", "len", "len+2", "64"):
                for length in lengths:
                    seed = pick.randbytes(length)
                    max_len = {"none": None, "len": length, "len+2": length + 2,
                               "64": 64}[cap]
                    got = havoc_mutate(seed, fast, stack_max, max_len)
                    want = _reference_havoc(seed, slow, stack_max, max_len)
                    assert got == want
                    assert fast.getstate() == slow.getstate()
                    calls += 1
        assert calls == 3 * 4 * len(lengths)

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
        # Positions are uniform over the whole input, at lengths where they
        # are carved from the operator's draw and where they are exact draws.
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
        # Past the carving bound a position is an exact rejection draw of
        # n.bit_length() bits, so the last byte of a 1 MiB input is reachable.
        length = 2**20 + 5
        rng = ScriptedRng([(30, 0), (30, draw), (21, 2**21 - 1), (21, length - 1)])
        mutant = havoc_mutate(bytes(length), rng, _SEARCH_STACK)
        assert mutant[-1] == changed
        assert mutant.count(0) == length - 1
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
    def test_boundary_guard_lands_on_flip_input(self):
        out = newton_step(bytes([5]), 11, {0: Fraction(-1)})
        assert out == bytes([16])

    def test_zero_distance_returns_witness(self):
        out = newton_step(bytes([5]), 0, {0: Fraction(-1)})
        assert out == bytes([5])

    def test_clamps_to_byte_range(self):
        out = newton_step(bytes([200]), 120, {0: Fraction(-1)})
        assert out == bytes([255])

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            newton_step(bytes([5]), 1, {})

    def test_length_preserved(self):
        out = newton_step(bytes([5, 9, 9]), 4, {0: Fraction(-2)})
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
    end.  Called with the mutator as ``self``; kept as the oracle
    for the records the factored version keeps."""
    records: dict[int, _SeedKeyedRecord] = {}
    norms: dict[int, Fraction] = {}
    seed_keys: dict[int, object] = {}
    raised: set[int] = set()
    for i in range(self.sample_size):
        if i and i % _SEARCH_CHUNK == 0:
            if not raised & executor.coverage.frontier:
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
        # first chunk, the seed and 63 mutants, and no record fires a root
        # step.
        program = builtin_targets.load("bug_chain")
        executor = make_executor(program, frontier={1})
        Mutator(program, 1024).mutate_stage(bytes(8), {1}, executor, random.Random(0))
        assert executor.execs == _SEARCH_CHUNK == 64

    def test_campaign_ending_mid_chunk_makes_only_the_mutants_it_runs(self, monkeypatch):
        # bug_chain at rng seed 0 covers its last edge with the 28th sample
        # of a stage's first chunk; the rest of that chunk is never made.
        search, havoc = Mutator.local_search, mutation.havoc_mutate
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
        monkeypatch.setattr(mutation, "havoc_mutate", counting_havoc)
        program = builtin_targets.load("bug_chain")
        camp = Campaign(program, [bytes(8)], Mode.FOX, Budget(max_execs=100_000), rng_seed=0)
        camp.run()
        assert camp.coverage.complete
        assert ended == [camp.log.records[-1].execs]
        assert (samples[-1] + 1) % _SEARCH_CHUNK != 0  # mid-chunk
        assert len(made) == sum(samples)


def _reference_solve_operand(self, seed, site, rec):
    """``Mutator._solve_operand`` as it was when it decoded the operand a
    second time: both operands read with ``int.from_bytes`` on a zero-padded
    slice, an operand-to-difference linkage sampled between them, and an
    exact ``Fraction`` step; the differences and the outcome come from
    ``guard_feedback``.  Called with the mutator as ``self``; kept as the
    oracle for the solver that takes the operand from the difference."""
    node = self.program.nodes[site]
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
    slope = _row_slope(outcome, node.relation, f_wit) * linkage
    solved = round_half_away(op_wit - Fraction(rec.witness_key, 1) / slope)
    bits = 8 * node.size
    lo, hi = (-(1 << (bits - 1)), (1 << (bits - 1)) - 1) if node.signed else (0, (1 << bits) - 1)
    solved = max(lo, min(hi, solved))
    buf = bytearray(rec.witness)
    end = node.offset + node.size
    if end > len(buf):
        buf.extend(b"\0" * (end - len(buf)))
    buf[node.offset:end] = (solved & ((1 << bits) - 1)).to_bytes(node.size, order)
    return bytes(buf)


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
        (witness_key,) = harness.execute(witness).observations.values()
        d_seed, d_witness = observation_distance(seed_key), observation_distance(witness_key)
        assume(d_witness != d_seed)  # a record needs a nonzero norm
        rec = SubgradientRecord(compute_subgradient(seed, witness, d_seed, d_witness),
                                witness, witness_key)
        mutator = Mutator(program)
        want = _reference_solve_operand(mutator, seed, 0, rec)
        assert mutator._solve_operand(0, rec) == want


class _ParentMutator(Mutator):
    """The mutator as it was when local search kept a record for every
    frontier site a sample reached, and the root solvers gated each record
    on the seed's key and feedback: its ``local_search``, ``mutate_stage``,
    ``_solve_string`` and ``_solve_operand`` are kept verbatim, records and
    all, except that ``_solve_string`` writes no window byte at or past
    ``max_input_len`` (as ``Mutator._solve_string`` does) and that
    ``mutate_stage`` builds no candidate for a site that left the live
    frontier earlier in the stage (as ``Mutator.mutate_stage`` does), and
    that its local search, which runs one sample at a time, stops as
    ``Mutator.local_search`` does.  Kept as the oracle for the stage that
    keeps only the records a root step can fire from."""

    def local_search(self, seed: bytes, frontier, executor,
                     rng: random.Random) -> dict[int, _SeedKeyedRecord]:
        """Sample the seed neighborhood and retain the best slope per branch.

        The first of the ``sample_size`` samples is the unmutated seed itself,
        which establishes the baseline distances the slopes are measured
        against; the rest are havoc mutants of stack ``_SEARCH_STACK``.  A
        sample's slope norm at a site is |Δd| · Σ_j 1/|Δbyte_j|; the sum
        depends only on the sample, so it is taken once, as an integer in
        units of 1/L (``_INV``), and records are compared by norm times L.
        Δd comes from the observations' scalarized distance keys; ``g`` is
        built only for a record that wins with a nonzero norm.  A site whose
        scalarized key equals its seed baseline has norm 0, which never beats
        its record's, so it is skipped: the records stay the same, and the sum
        is taken only at a sample's first site whose key moved.  Sample ``i``
        ends a chunk when ``i % _SEARCH_CHUNK`` is the last index, and the
        search stops after a chunk that raised no norm of a site still on the
        executor's frontier.
        """
        seed_keys = executor.run(seed).observations
        seed_v = {site: observation_distance(key)
                  for site, key in seed_keys.items() if site in frontier}
        records = {site: _SeedKeyedRecord({}, seed, seed_keys[site], seed_keys[site])
                   for site in seed_v}
        norms = dict.fromkeys(records, 0)
        raised: set[int] = set()
        for i in range(1, self.sample_size):
            if i % _SEARCH_CHUNK == 0:
                if not raised & executor.coverage.frontier:
                    break
                raised = set()
            data = havoc_mutate(seed, rng, _SEARCH_STACK)
            s = None
            for site, key in executor.run(data).observations.items():
                base = seed_v.get(site)  # every site in seed_v is in the frontier
                if base is None:
                    if site in frontier and site not in records:  # no seed baseline
                        records[site] = _SeedKeyedRecord({}, data, key)
                    continue
                v = observation_distance(key)
                if v == base:
                    continue
                if s is None:
                    s = 0  # with no max_len, havoc keeps the seed's length
                    for x, y in zip(seed, data):
                        if x != y:
                            s += _INV[abs(y - x)]
                norm = abs(v - base) * s
                if norm > norms[site]:
                    norms[site] = norm
                    raised.add(site)
                    g = compute_subgradient(seed, data, base, v)
                    records[site] = _SeedKeyedRecord(g, data, key, seed_keys[site])
        return records

    def mutate_stage(self, seed: bytes, frontier, executor, rng: random.Random) -> None:
        """One full stage: sample, estimate slopes, and fire one targeted
        input per frontier branch that yielded a usable estimate and is still
        on the live frontier."""
        records = self.local_search(seed, frontier, executor, rng)
        for site in sorted(records):
            if site not in executor.coverage.frontier:
                continue
            rec = records[site]
            node = self.program.nodes[site]
            candidate: bytes | None = None
            if node.kind is GuardKind.STR:
                candidate = self._solve_string(seed, site, rec, executor)
            elif node.kind is GuardKind.INT:
                candidate = self._solve_operand(seed, site, rec)
            if candidate is None and rec.g:
                candidate = newton_step(rec.witness, observation_distance(rec.witness_key), rec.g)
            if candidate is None or candidate == rec.witness:
                continue
            executor.run(candidate)

    def _solve_string(self, seed: bytes, site: int, rec: _SeedKeyedRecord,
                      executor) -> bytes | None:
        """Per-byte root solving over the inferred hot window."""
        if rec.seed_key is None or rec.witness_key == rec.seed_key:
            return None
        offsets = infer_hot_bytes(seed, rec.witness, site, executor)
        if not offsets:
            return None
        node = self.program.nodes[site]
        outcome, diffs = guard_feedback(node, rec.witness)
        buf = bytearray(rec.witness)
        changed = False
        # Positions past the window are padding, with no input byte to solve.
        for offset, f, component in zip(offsets[:node.size], diffs, rec.witness_key[1]):
            if component == 0 or offset >= self.program.max_input_len:
                continue
            slope = _row_slope(outcome, node.relation, f)
            if offset >= len(buf):
                buf.extend(b"\0" * (offset + 1 - len(buf)))
            # The slope is +/-1, so dividing by it is multiplying by it.
            buf[offset] = _clamp_byte(buf[offset] - component * slope)
            changed = True
        return bytes(buf) if changed else None

    def _solve_operand(self, seed: bytes, site: int, rec: _SeedKeyedRecord) -> bytes | None:
        """Root solving in operand space for integer guards.

        Byte-space slopes diverge on multi-byte operands (a carry into a high
        byte moves the distance by thousands) and absolute-value distance
        rows kink at the root, so the step is taken on the operand instead.
        An integer guard's difference is ``f = operand - constant``, so the
        witness's operand is ``constant + f`` and the distance's slope in the
        operand is the row's derivative at ``f``, which is +/-1: dividing
        the distance by it is multiplying by it.  A witness whose operand
        equals the seed's gives no step.  The solved operand is clamped to
        the operand's range and written back with the declared endianness.
        """
        if rec.seed_key is None:
            return None
        node = self.program.nodes[site]
        outcome, f = guard_feedback(node, rec.witness)
        if f == guard_feedback(node, seed)[1]:
            return None
        solved = node.constant + f - rec.witness_key * _row_slope(outcome, node.relation, f)
        bits = 8 * node.size
        lo, hi = (
            (-(1 << (bits - 1)), (1 << (bits - 1)) - 1)
            if node.signed
            else (0, (1 << bits) - 1)
        )
        solved = max(lo, min(hi, solved))
        buf = bytearray(rec.witness)
        end = node.offset + node.size
        if end > len(buf):
            buf.extend(b"\0" * (end - len(buf)))
        order = "little" if node.endian == "le" else "big"
        buf[node.offset:end] = (solved & ((1 << bits) - 1)).to_bytes(node.size, order)
        return bytes(buf)



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
    MAGI_DOC = {
        "max_input_len": 12,
        "entry": 0,
        "nodes": [{"id": 0, "kind": "str", "offset": 4, "length": 4,
                   "relation": "eq",
                   "constant": base64.b64encode(b"MAGI").decode(),
                   "taken": None, "nottaken": None}],
    }

    def test_window_inferred_from_single_probe(self):
        program = program_from_dict(self.MAGI_DOC)
        executor = make_executor(program, frontier={0})
        seed = bytes(12)
        mutant = bytearray(seed)
        mutant[1] = 7
        mutant[5] = 66
        before = executor.execs
        hot = infer_hot_bytes(seed, bytes(mutant), 0, executor)
        assert hot == (4, 5, 6, 7)
        # Baseline plus at most one probe per differing byte.
        assert executor.execs - before <= 3

    def test_identical_mutant_yields_empty_set(self):
        program = program_from_dict(self.MAGI_DOC)
        executor = make_executor(program, frontier={0})
        hot = infer_hot_bytes(bytes(12), bytes(12), 0, executor)
        assert hot == ()

    def test_differences_outside_window_yield_empty_set(self):
        program = program_from_dict(self.MAGI_DOC)
        executor = make_executor(program, frontier={0})
        mutant = bytearray(bytes(12))
        mutant[1] = 7
        mutant[9] = 3  # past the compared window
        hot = infer_hot_bytes(bytes(12), bytes(mutant), 0, executor)
        assert hot == ()

    LT_DOC = {
        "max_input_len": 12,
        "entry": 0,
        "nodes": [{"id": 0, "kind": "str", "offset": 4, "length": 4,
                   "relation": "lt",
                   "constant": base64.b64encode(b"MMMM").decode(),
                   "taken": None, "nottaken": None}],
    }

    def test_flipping_probe_pins_no_window(self):
        # Probing byte 6 flips "MMMM" < "MMMM" to "MMAM" < "MMMM": the
        # distance row switches, every key component changes, and the first
        # changed one (index 0) says nothing about where byte 6 landed.
        program = program_from_dict(self.LT_DOC)
        executor = make_executor(program, frontier={0})
        seed = bytes(4) + b"MMMM" + bytes(4)
        assert infer_hot_bytes(seed, bytes(4) + b"MMAM" + bytes(4), 0, executor) == ()
        # A probe that keeps the outcome changes one component and pins the
        # window.
        assert infer_hot_bytes(seed, bytes(4) + b"MMMZ" + bytes(4), 0, executor) == (4, 5, 6, 7)
        # A flipping probe covers the branch and ends probing: in a campaign
        # the executor switches the site off at that exec, so no later probe
        # could observe it.
        before = executor.execs
        assert infer_hot_bytes(seed, bytes(4) + b"MMAZ" + bytes(4), 0, executor) == ()
        assert executor.execs - before == 2  # the seed, then the probe at byte 6

    def test_flipping_probe_pins_no_two_byte_window(self):
        # "MO" < "MM" is false; probing byte 5 gives "ML" < "MM", which is
        # true.  The row switches and the keys go from (2, (-1, 1)) to
        # (1, (0, 1)): only component 1 changes, which would put the window
        # at (5, 6) instead of (4, 5).  The probe flipped the guard, so it
        # pins nothing.
        program = program_from_dict({
            "max_input_len": 8, "entry": 0,
            "nodes": [{"id": 0, "kind": "str", "offset": 4, "length": 2, "relation": "lt",
                       "constant": base64.b64encode(b"MM").decode(),
                       "taken": None, "nottaken": None}],
        })
        executor = make_executor(program, frontier={0})
        seed = bytes(4) + b"MO" + bytes(2)
        assert infer_hot_bytes(seed, bytes(4) + b"ML" + bytes(2), 0, executor) == ()
        # A probe that keeps the outcome still pins the window.
        assert infer_hot_bytes(seed, bytes(4) + b"MP" + bytes(2), 0, executor) == (4, 5)

    def test_unequal_lengths_rejected_before_any_exec(self):
        program = program_from_dict(self.MAGI_DOC)
        executor = make_executor(program, frontier={0})
        with pytest.raises(ValueError, match="equal-length"):
            infer_hot_bytes(bytes(8), bytes(12), 0, executor)
        assert executor.execs == 0


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
        assert sampled == [64]

    def test_budget_bound(self, monkeypatch):
        program = builtin_targets.load("mixed_tree")
        executor = make_executor(program, frontier={0, 2})
        mutator = Mutator(program, 256)
        infer = mutation.infer_hot_bytes
        probes = []

        def counting_infer(seed, mutant, site, executor):
            before = executor.execs
            hot = infer(seed, mutant, site, executor)
            probes.append(executor.execs - before)
            return hot

        monkeypatch.setattr(mutation, "infer_hot_bytes", counting_infer)
        mutator.mutate_stage(bytes(8), {0, 2}, executor, random.Random(3))
        reached = 2
        assert executor.execs <= 256 + reached + sum(probes)

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
        # A probe that flips the guard changes every key component, so the
        # inferred window starts at the probed byte, the last one here; its
        # second byte lies past max_input_len and must stay unsolved.
        doc = {"max_input_len": 2, "entry": 0,
               "nodes": [{"id": 0, "kind": "str", "offset": 0, "relation": "le",
                          "length": 2, "constant": "AA==", "taken": 1, "nottaken": None},
                         {"id": 1, "kind": "bug"}]}
        program = program_from_dict(doc)
        camp = Campaign(program, [bytes(2)], Mode.FOX, Budget(max_execs=2000),
                        sample_size=2, rng_seed=1)
        camp.run()
        assert camp.coverage.complete


class TestLinearExactness:
    @pytest.mark.parametrize("relation,constant", [
        ("lt", 60), ("le", 60), ("gt", 180), ("ge", 180),
    ])
    @pytest.mark.parametrize("seed_byte", [0, 59, 61, 130, 255])
    def test_affine_one_byte_guard_step_lands_at_boundary(self, relation, constant, seed_byte):
        # Whenever local search finds a nonzero slope on a guard whose
        # distance is affine in one byte, the root step either flips the
        # guard or lands within one unit of the boundary.
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
        if rec is None or l1_norm(rec.g) == 0:
            pytest.skip("no usable slope sampled")
        out = newton_step(rec.witness, observation_distance(rec.witness_key), rec.g)
        node = program.nodes[0]
        outcome, f = guard_feedback(node, out)
        flipped = outcome != guard_feedback(node, rec.witness)[0]
        assert flipped or abs(f) <= 1


class TestRootCorrespondence:
    @pytest.mark.parametrize("witness_byte", [0, 3, 5, 11, 15])
    def test_prediction_lands_on_flip_boundary(self, witness_byte):
        # On the boundary guard the pre-flip distance is 16 - x with slope
        # -1, so the root prediction is 16 from anywhere on the true side.
        program = le15_program()
        harness = Harness(program, synthetic_time=True)
        harness.switch_on({0})
        (key,) = harness.execute(bytes([witness_byte])).observations.values()
        predicted = newton_step(
            bytes([witness_byte]), observation_distance(key), {0: Fraction(-1)}
        )
        assert predicted == bytes([16])
        assert harness.execute(predicted).edges == (1,)


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
            if rec is None or l1_norm(rec.g) == 0:
                continue
            trials += 1
            out = newton_step(rec.witness, observation_distance(rec.witness_key), rec.g)
            harness = Harness(program, synthetic_time=True)
            harness.switch_on({0})
            (key,) = harness.execute(out).observations.values()
            d_out = abs(observation_distance(key))
            d_wit = abs(observation_distance(rec.witness_key))
            wins += d_out <= d_wit
        assert trials > 0
        assert wins / trials >= 0.95
