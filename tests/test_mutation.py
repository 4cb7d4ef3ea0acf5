import base64
import collections
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_executor
from frontierfuzz import builtin_targets, mutation
from frontierfuzz.distance import observation_distance
from frontierfuzz.mutation import (
    _ARITH_MAX,
    _INTERESTING,
    Mutator,
    MutatorConfig,
    SubgradientRecord,
    compute_subgradient,
    havoc_mutate,
    infer_hot_bytes,
    l1_norm,
    _row_slope,
    newton_step,
    round_half_away,
)
from frontierfuzz.target import Harness, guard_feedback, program_from_dict
from test_target import _BYTE_VALUES, _RELATION_TOKENS, _documents

CFG = MutatorConfig()


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
    every havoc call applies operator ``index`` of its table with all other
    fields drawn at random."""

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


def _reference_havoc(seed, cfg, rng, *, stack_max=None, allow_resize=False, max_len=None):
    """``havoc_mutate``'s draw contract, one field at a time and with no
    tables: the oracle for its carving order, ranges and carving bound."""
    if not seed:
        raise ValueError("seed must be nonempty")
    top = cfg.havoc_stack_max if stack_max is None else stack_max
    budget = cfg.havoc_bytes_per_op
    ops = [0, 1, 2, 3, 4]
    if budget >= 2:
        ops.append(5)
    if allow_resize:
        ops.extend((6, 7))
    buf = bytearray(seed)
    orig_len = len(seed)
    for _ in range(rng.getrandbits(30) % top + 1):
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


def _single_op(seed, cfg, op, samples, *, allow_resize=False, max_len=None, rng_seed=0):
    """``samples`` havoc mutants of ``seed`` that each apply operator ``op`` once."""
    ops = mutation._HAVOC_OPS[cfg.havoc_bytes_per_op >= 2, allow_resize]
    rng = OpPinnedRng(rng_seed, ops.index(op), len(ops))
    return [havoc_mutate(seed, cfg, rng, stack_max=1, allow_resize=allow_resize,
                         max_len=max_len) for _ in range(samples)]


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
        mutant = havoc_mutate(bytes(4), CFG, rng)
        assert mutant == bytes([0, 0, 8, 0])
        assert not rng.draws

    @pytest.mark.parametrize("stack_max", [0, -1, -7])
    def test_stack_max_below_one_rejected(self, stack_max):
        with pytest.raises(ValueError, match="stack_max must be >= 1"):
            havoc_mutate(b"seed", CFG, random.Random(0), stack_max=stack_max)

    @pytest.mark.parametrize("bytes_per_op", [1, 2, 3, 4, 8, 64])
    def test_matches_reference(self, bytes_per_op):
        # Same output bytes and same rng state after every call, across
        # stack depths, resize on and off, length caps and seed lengths.  The
        # long lengths straddle every carving threshold, so both the carved
        # and the exact draws of every field are compared.
        cfg = MutatorConfig(havoc_bytes_per_op=bytes_per_op)
        pick = random.Random(bytes_per_op)
        fast, slow = random.Random(7 * bytes_per_op), random.Random(7 * bytes_per_op)
        lengths = list(range(1, 41)) + [300, 419, 600, 1_500, 2_500, 20_000, 40_000]
        calls = 0
        for stack_max in (None, 1, 4, 16):
            for allow_resize in (False, True):
                for cap in ("none", "len", "len+2", "64"):
                    for length in lengths:
                        seed = pick.randbytes(length)
                        max_len = {"none": None, "len": length, "len+2": length + 2,
                                   "64": 64}[cap]
                        kwargs = dict(stack_max=stack_max, allow_resize=allow_resize,
                                      max_len=max_len)
                        got = havoc_mutate(seed, cfg, fast, **kwargs)
                        want = _reference_havoc(seed, cfg, slow, **kwargs)
                        assert got == want
                        assert fast.getstate() == slow.getstate()
                        calls += 1
        assert calls == 4 * 2 * 4 * len(lengths)

    @pytest.mark.parametrize("bytes_per_op,allow_resize", [
        (1, False), (1, True), (4, False), (4, True),
    ])
    def test_operator_mix(self, bytes_per_op, allow_resize):
        # On a seed of distinct bytes the delete, the insert and the byte
        # swap (when its two positions differ) each show themselves; each
        # operator is drawn with probability 1 / len(table).
        cfg = MutatorConfig(havoc_bytes_per_op=bytes_per_op)
        ops = mutation._HAVOC_OPS[bytes_per_op >= 2, allow_resize]
        seed = bytes(range(16))
        rng = random.Random(11)
        total = 8_000
        kinds = collections.Counter()
        for _ in range(total):
            mutant = havoc_mutate(seed, cfg, rng, stack_max=1, allow_resize=allow_resize)
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
        (op, length, bytes_per_op)
        for op, budgets in ((0, (1, 4)), (1, (1, 4)), (2, (1, 4)), (3, (1, 2, 4)), (5, (4,)),
                            (6, (1, 4)))
        for length in (1, 3, 6) for bytes_per_op in budgets
    ])
    def test_operator_fields_uniform(self, op, length, bytes_per_op):
        # Every field an operator reads is uniform over its documented range:
        # bit, byte value, delta 1..35 with both signs, the interesting values
        # in both endiannesses for every width that fits, swap positions, and
        # the delete's block length and position.
        cfg = MutatorConfig(havoc_bytes_per_op=bytes_per_op)
        seed = bytes(range(10, 10 + length))
        expected = _spec_outcomes(seed, bytes_per_op, op)
        total = min(40_000, max(2_000, round(30 / min(expected.values()))))
        samples = _single_op(seed, cfg, op, total, allow_resize=op == 6,
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
        for mutant in _single_op(seed, CFG, op, 30 * buckets, rng_seed=length + op):
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
        mutant = havoc_mutate(bytes(length), CFG, rng)
        assert mutant[-1] == changed
        assert mutant.count(0) == length - 1
        assert not rng.draws

    @pytest.mark.parametrize("length,bytes_per_op", [(2, 4), (6, 4), (6, 1), (9, 8)])
    def test_block_lengths(self, length, bytes_per_op):
        # Block overwrite writes 1..min(budget, n) bytes and insert adds
        # 1..min(budget, max_len - n), each uniformly.
        cfg = MutatorConfig(havoc_bytes_per_op=bytes_per_op)
        m = min(bytes_per_op, length)
        spans = []
        for mutant in _single_op(bytes(length), cfg, 4, 400 * m, rng_seed=length):
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
        inserted = _single_op(seed, cfg, 7, 300 * max(grow, length + 1), allow_resize=True,
                              max_len=max_len)
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
        cfg=st.builds(MutatorConfig, havoc_stack_max=st.integers(1, 16),
                      havoc_bytes_per_op=st.integers(1, 8)),
        stack_max=st.none() | st.integers(1, 32),
        seed=st.binary(min_size=1, max_size=64),
        rng_seed=st.integers(0, 2**32),
        max_len=st.none() | st.integers(1, 128),
    )
    def test_length_bounds_with_resize(self, cfg, stack_max, seed, rng_seed, max_len):
        # A resized mutant keeps at least one byte, stays within
        # bytes_per_op of the seed's length, and grows only up to max_len.
        rng = random.Random(rng_seed)
        budget = cfg.havoc_bytes_per_op
        low = max(1, len(seed) - budget)
        high = len(seed) + budget
        if max_len is not None:
            high = min(high, max(max_len, len(seed)))
        for _ in range(8):
            mutant = havoc_mutate(seed, cfg, rng, stack_max=stack_max, allow_resize=True,
                                  max_len=max_len)
            assert low <= len(mutant) <= high

    def test_length_bounds_reached(self):
        # Both ends of the resize range are reachable.
        seed = bytes(range(16))
        rng = random.Random(8)
        lengths = {len(havoc_mutate(seed, CFG, rng, stack_max=16, allow_resize=True, max_len=19))
                   for _ in range(3_000)}
        assert lengths == set(range(12, 20))

    def test_empty_seed_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            havoc_mutate(b"", CFG, random.Random(0))

    def test_locality_bound(self):
        # Every mutant stays within stack * bytes_per_op differing bytes.
        seed = bytes(range(32))
        rng = random.Random(1234)
        bound = CFG.havoc_stack_max * CFG.havoc_bytes_per_op
        for _ in range(10_000):
            mutant = havoc_mutate(seed, CFG, rng)
            assert len(mutant) == len(seed)
            hamming = sum(1 for a, b in zip(seed, mutant) if a != b)
            assert hamming <= bound

    @settings(max_examples=200, deadline=None)
    @given(
        cfg=st.builds(MutatorConfig, havoc_stack_max=st.integers(1, 16),
                      havoc_bytes_per_op=st.integers(1, 8)),
        stack_max=st.none() | st.integers(1, 32),
        seed=st.binary(min_size=1, max_size=64),
        rng_seed=st.integers(0, 2**32),
        max_len=st.none() | st.integers(1, 128),
    )
    def test_fixed_length_without_resize(self, cfg, stack_max, seed, rng_seed, max_len):
        # Local search relies on this: its samples align byte for byte with
        # the seed, so it never zero-extends.
        rng = random.Random(rng_seed)
        for _ in range(8):
            mutant = havoc_mutate(seed, cfg, rng, stack_max=stack_max, allow_resize=False,
                                  max_len=max_len)
            assert len(mutant) == len(seed)

    def test_determinism_across_runs(self):
        seed = bytes(range(16))
        first = [havoc_mutate(seed, CFG, random.Random(99)) for _ in range(500)]
        second = [havoc_mutate(seed, CFG, random.Random(99)) for _ in range(500)]
        assert first == second

    def test_resize_bounded(self):
        seed = bytes(range(16))
        rng = random.Random(5)
        for _ in range(5_000):
            mutant = havoc_mutate(seed, CFG, rng, stack_max=16,
                                  allow_resize=True, max_len=20)
            assert abs(len(mutant) - len(seed)) <= CFG.havoc_bytes_per_op
            assert len(mutant) <= 20

    def test_tight_bytes_per_op_disables_swap(self):
        # With a one-byte op budget every mutant differs in at most
        # stack bytes, which a two-byte swap would violate.
        cfg = MutatorConfig(havoc_bytes_per_op=1, havoc_stack_max=1)
        seed = bytes(range(8))
        rng = random.Random(3)
        for _ in range(2_000):
            mutant = havoc_mutate(seed, cfg, rng)
            assert sum(1 for a, b in zip(seed, mutant) if a != b) <= 1


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
        mutator = Mutator(MutatorConfig(sample_size=64), program)
        records = mutator.local_search(bytes([5]), {0}, executor, random.Random(0), k=64)
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
        mutator = Mutator(MutatorConfig(sample_size=64), program)
        records = mutator.local_search(bytes(8), {1}, executor, random.Random(0), k=64)
        assert records == {}

    def test_one_record_per_reached_branch(self):
        program = builtin_targets.load("mixed_tree")
        executor = make_executor(program, frontier={0, 2})
        mutator = Mutator(MutatorConfig(sample_size=128), program)
        records = mutator.local_search(bytes(8), {0, 2}, executor, random.Random(1), k=128)
        assert set(records) <= {0, 2}
        assert len(records) <= 2

    def test_executions_recorded_in_scheduler(self):
        # The magic guard cannot flip during sampling, so every execution
        # reaches a live frontier branch and lands in its clocks.
        program = builtin_targets.load("magic32")
        executor = make_executor(program, frontier={0})
        mutator = Mutator(MutatorConfig(sample_size=32), program)
        mutator.local_search(bytes(8), {0}, executor, random.Random(0), k=32)
        stats = executor.scheduler.stats[0]
        # Synthetic time charges one unit per exec.
        assert stats.tt == executor.execs == 32
        assert stats.pt <= stats.tt

    def test_retained_slope_is_global_lower_bound_on_linear_guard(self):
        # Exhaustive oracle: the boundary guard's distance at every byte
        # value, measured through the harness.
        program = le15_program()
        executor = make_executor(program, frontier={0})
        mutator = Mutator(MutatorConfig(sample_size=64), program)
        seed = bytes([5])
        records = mutator.local_search(seed, {0}, executor, random.Random(2), k=64)
        g = records[0].g[0]
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites({0})

        def dist(x):
            (key,) = harness.execute(bytes([x])).observations.values()
            return observation_distance(key)

        d_seed = dist(5)
        for x in range(256):
            assert g * (x - 5) <= dist(x) - d_seed


def _reference_local_search(self, seed, frontier, executor, rng, k=None):
    """``Mutator.local_search`` as it was before the norm was factored: a
    ``Fraction`` slope dict and its L1 norm for every (sample, frontier site)
    pair.  Called with the mutator as ``self``; kept as the oracle for the
    records the factored version keeps."""
    k = self.config.sample_size if k is None else k
    records: dict[int, SubgradientRecord] = {}
    norms: dict[int, Fraction] = {}
    seed_keys: dict[int, object] = {}
    for i in range(k):
        data = seed if i == 0 else havoc_mutate(seed, self.config, rng)
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
            if site not in records or norm > norms[site]:
                records[site] = SubgradientRecord(g, data, key, base)
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
    @settings(max_examples=300, deadline=None)
    @given(_search_setups(), st.integers(0, 2**32), st.integers(0, 40),
           st.sampled_from([1, 2, 4, 8]))
    def test_same_records_draws_and_state(self, setup, rng_seed, k, bytes_per_op):
        program, active, frontier, seed = setup
        mutator = Mutator(MutatorConfig(havoc_bytes_per_op=bytes_per_op), program)
        runs = []
        for search in (Mutator.local_search, _reference_local_search):
            executor = make_executor(program, frontier=active)
            rng = random.Random(rng_seed)
            records = search(mutator, seed, frontier, executor, rng, k)
            runs.append((records, rng.getstate(), executor))
        (got, got_rng, got_ex), (want, want_rng, want_ex) = runs
        assert set(got) == set(want)
        for site, rec in want.items():
            assert got[site].witness == rec.witness
            assert got[site].witness_key == rec.witness_key
            assert got[site].seed_key == rec.seed_key
            norm = l1_norm(rec.g)
            assert l1_norm(got[site].g) == norm
            if norm > 0:
                assert got[site].g == rec.g
            else:
                assert got[site].g == {}
        assert got_rng == want_rng
        assert (got_ex.execs, got_ex.flips, got_ex.t_ns) == (
            want_ex.execs, want_ex.flips, want_ex.t_ns)
        assert got_ex.corpus.entries == want_ex.corpus.entries
        # best, best_input, pt and tt per site
        assert got_ex.scheduler.stats == want_ex.scheduler.stats

    def test_subgradients_built_only_for_nonzero_replacements(self, monkeypatch):
        # Five always-true guards on every path: each sample reaches every
        # site.  Count the strict nonzero-norm improvements the sample stream
        # makes per site, then the slope dicts local search builds.
        program = program_from_dict({
            "max_input_len": 5, "entry": 0,
            "nodes": [{"id": i, "kind": "int", "offset": i, "width": 1, "endian": "le",
                       "signed": False, "relation": "le", "constant": 255,
                       "taken": i + 1 if i < 4 else None, "nottaken": None}
                      for i in range(5)],
        })
        sites = set(program.guard_ids)
        seed = bytes([3, 60, 128, 200, 250])
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites(sites)
        base = {site: observation_distance(key)
                for site, key in harness.execute(seed).observations.items()}
        best = dict.fromkeys(sites, Fraction(0))
        replacements = 0
        rng = random.Random(5)
        for _ in range(255):
            data = havoc_mutate(seed, CFG, rng)
            for site, key in harness.execute(data).observations.items():
                norm = l1_norm(compute_subgradient(
                    seed, data, base[site], observation_distance(key)))
                if norm > best[site]:
                    best[site] = norm
                    replacements += 1
        calls = []

        def counting(*args):
            calls.append(args)
            return compute_subgradient(*args)

        monkeypatch.setattr(mutation, "compute_subgradient", counting)
        executor = make_executor(program, frontier=sites)
        Mutator(CFG, program).local_search(seed, sites, executor, random.Random(5), k=256)
        assert len(calls) == replacements
        assert 0 < replacements < 255  # fewer than one per sample, not 5 per sample


def _reference_solve_operand(self, seed, site, rec):
    """``Mutator._solve_operand`` as it was when it decoded the operand a
    second time: both operands read with ``int.from_bytes`` on a zero-padded
    slice, an operand-to-difference linkage sampled between them, and an
    exact ``Fraction`` step; the differences and the outcome come from
    ``guard_feedback``.  Called with the mutator as ``self``; kept as the
    oracle for the solver that takes the operand from the difference."""
    if rec.seed_key is None:
        return None
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
    plus a seed and an equal-length witness that may stop short of the
    operand window and may agree with the seed on it."""
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
    length = draw(st.integers(1, doc["max_input_len"]))
    inputs = st.lists(_BYTE_VALUES, min_size=length, max_size=length).map(bytes)
    seed = draw(inputs)
    witness = bytearray(draw(inputs))
    window = slice(offset, offset + width)
    if draw(st.booleans()):
        witness[window] = seed[window]
    elif offset < length and witness[window] == seed[window]:
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
        harness.set_active_sites({0})
        (seed_key,) = harness.execute(seed).observations.values()
        (witness_key,) = harness.execute(witness).observations.values()
        with_seed = data.draw(st.booleans())
        rec = SubgradientRecord({}, witness, witness_key, seed_key if with_seed else None)
        mutator = Mutator(CFG, program)
        want = _reference_solve_operand(mutator, seed, 0, rec)
        assert mutator._solve_operand(seed, 0, rec) == want


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
            mutator = Mutator(MutatorConfig(sample_size=1024), program)
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
            mutator = Mutator(MutatorConfig(sample_size=1024), program)
            mutator.mutate_stage(bytes(16), {0}, executor, random.Random(rng_seed))
            flips += executor.coverage.complete
        assert flips >= 9

    def test_empty_frontier_runs_no_newton(self):
        program = builtin_targets.load("le15")
        executor = make_executor(program, frontier=frozenset())
        mutator = Mutator(MutatorConfig(sample_size=32), program)
        mutator.mutate_stage(bytes([5]), frozenset(), executor, random.Random(0))
        assert executor.execs == 32  # the samples alone, no root step

    def test_xor_stage_completes_without_guarantee(self, monkeypatch):
        program = builtin_targets.load("xor_guard")
        executor = make_executor(program, frontier={0})
        mutator = Mutator(MutatorConfig(sample_size=64), program)
        local_search = Mutator.local_search
        sampled = []

        def counting_local_search(self, seed, frontier, executor, rng, k=None):
            before = executor.execs
            records = local_search(self, seed, frontier, executor, rng, k)
            sampled.append(executor.execs - before)
            return records

        monkeypatch.setattr(Mutator, "local_search", counting_local_search)
        mutator.mutate_stage(bytes(8), {0}, executor, random.Random(0))
        assert sampled == [64]

    def test_budget_bound(self, monkeypatch):
        program = builtin_targets.load("mixed_tree")
        executor = make_executor(program, frontier={0, 2})
        mutator = Mutator(MutatorConfig(sample_size=256), program)
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
        mutator = Mutator(MutatorConfig(sample_size=128), program)
        mutator.mutate_stage(bytes(2), {0}, executor, random.Random(11))
        assert executor.coverage.complete


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
        mutator = Mutator(MutatorConfig(sample_size=64), program)
        seed = bytes([seed_byte])
        records = mutator.local_search(seed, {0}, executor, random.Random(17), k=64)
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
        harness.set_active_sites({0})
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
            mutator = Mutator(MutatorConfig(sample_size=32), program)
            records = mutator.local_search(bytes([5]), {0}, executor,
                                           random.Random(rng_seed), k=32)
            rec = records.get(0)
            if rec is None or l1_norm(rec.g) == 0:
                continue
            trials += 1
            out = newton_step(rec.witness, observation_distance(rec.witness_key), rec.g)
            harness = Harness(program, synthetic_time=True)
            harness.set_active_sites({0})
            (key,) = harness.execute(out).observations.values()
            d_out = abs(observation_distance(key))
            d_wit = abs(observation_distance(rec.witness_key))
            wins += d_out <= d_wit
        assert trials > 0
        assert wins / trials >= 0.95
