"""Distance-guided mutation: bounded havoc sampling, subgradient estimation,
and root-finding steps at operands located with no exec.

A mutation stage samples the seed's neighborhood with a short stack of havoc
operators, until a chunk of samples improves no estimate or every live branch
has one, and keeps, for every frontier branch that some sample moved away from
the seed's distance, the sample with the largest slope estimate (its
witness).  It then jumps each such branch to its distance root on the
operand itself, not in byte space:

    operand = constant + root

Every distance is the order key a guard's step stored in the observation map
(see ``distance``).  The root is the operand difference nearest 0 at which
the witness's relation no longer gives its outcome (``_ROOTS``), and coverage
gives the outcome.  The operand's place in the input is found as
input-to-state correspondence finds it, not read off the guard:
``infer_hot_bytes`` places it at each window around a changed byte whose
contents give the witness's key, and ``_solve`` writes the root there.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress, count

from .distance import observation_distance
from .target import _FORMULAS, GuardKind, GuardNode, GuardProgram, Relation

__all__ = [
    "SubgradientRecord",
    "havoc_mutate",
    "compute_subgradient",
    "infer_hot_bytes",
    "Mutator",
]

# AFL-style interesting substitution values, keyed by width in bytes.
_INTERESTING = {
    1: (-128, -1, 0, 1, 16, 32, 64, 100, 127),
    2: (-32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767),
    4: (-2147483648, -100663046, -32769, 32768, 65535, 65536, 100663045, 2147483647),
}

_ARITH_MAX = 35

# A havoc operator touches at most this many byte positions.
_BYTES_PER_OP = 4
# Havoc stack depths: local search stays near the seed so its samples give
# slopes; plain havoc batches take the deeper stack.
_SEARCH_STACK = 4
_BATCH_STACK = 16
# Local search runs its samples in chunks of this many, the seed included in
# the first: memory stays bounded, and the search ends after a chunk that
# improves no record or leaves every live branch with one.  The stop rules are
# read only at chunk ends, so the size trades execs to full coverage for
# execs/s: against 64, chunks of 32 halve the suite targets' median execs to
# full coverage and cost suite-fox about 15% of its execs/s; chunks of 16 cost
# about a third, since each stage's fixed work then outweighs its few execs.
_SEARCH_CHUNK = 32

# Byte add/sub in one field: entry 2 * (delta - 1) + sign adds delta when sign
# is 1 and subtracts it when sign is 0.
_DELTAS = tuple(d if sign else -d for d in range(1, _ARITH_MAX + 1) for sign in (0, 1))
# Interesting values pre-packed per width: entry 2 * i + e is value i of that
# width in two's complement, little-endian for e = 0 and big-endian for e = 1.
_PACKED = {
    w: tuple((v & ((1 << (8 * w)) - 1)).to_bytes(w, order)
             for v in values for order in ("little", "big"))
    for w, values in _INTERESTING.items()
}
# The count and the (width, value count, packed values) choices that fit
# min(len, 4).
_CHOICES = {
    n: (sum(w <= n for w in (1, 2, 4)),
        tuple((w, len(_PACKED[w]), _PACKED[w]) for w in (1, 2, 4) if w <= n))
    for n in (1, 2, 3, 4)
}

# 1/δ in units of 1/L for each byte delta δ; L = lcm(1..255) makes each exact.
_L = math.lcm(*range(1, 256))
_INV = (0,) + tuple(_L // delta for delta in range(1, 256))
# Where a root step lands, keyed by (outcome, relation): the operand
# difference nearest 0, 1 before -1, at which the relation, the ``operator``
# function its value names, no longer gives the outcome.
_ROOTS = {(outcome, rel): next(f for f in (0, 1, -1)
                               if getattr(operator, rel.value)(f, 0) != outcome)
          for outcome in (False, True) for rel in Relation}


@dataclass
class SubgradientRecord:
    """Best slope estimate retained for one frontier branch this stage.

    ``g`` maps byte positions to exact rational slopes, one nonzero slope per
    byte where ``witness`` differs from the seed; of the samples local search
    took before it stopped that reached the branch, the witness is the first
    whose ``g`` has the largest L1 norm.
    A record exists only for a nonzero norm (see ``Mutator.local_search``),
    so ``witness_key``, the witness's distance order key, differs from the
    seed's.  The stage reads only ``witness`` and ``witness_key``; ``g`` is
    kept for the worked example of the acceptance suite and the benchmark's
    trace of ``compute_subgradient``.
    """

    g: dict[int, Fraction]
    witness: bytes
    witness_key: int | tuple[int, tuple[int, ...]]


def _clamp_byte(v: int) -> int:
    return 0 if v < 0 else (255 if v > 255 else v)


def havoc_mutate(seed: bytes, rng: random.Random, stack_max: int,
                 max_len: int | None = None) -> bytes:
    """Apply a random stack of 1 to ``stack_max`` havoc operators to the seed.

    Every operator touches at most 4 byte positions (``_BYTES_PER_OP``), so a
    mutant differs from the seed in at most ``4 * stack_max`` bytes.  Local
    search passes ``_SEARCH_STACK`` (4) and plain havoc batches
    ``_BATCH_STACK`` (16).  The length-changing operators are on exactly when
    ``max_len`` is given (local search needs inputs aligned with the seed);
    they never move the length more than 4 away from the seed's, and grow
    only up to ``max_len``.

    Draw contract.  The stack depth is ``rng.getrandbits(30) % stack_max + 1``.
    Each operator then takes one ``rng.getrandbits(width)``, even one that is
    skipped, and carves its fields from it in mixed radix (``r % m`` is the
    field, ``r // m`` the rest), in this order: the operator index (8 with
    ``max_len``, else 6; the last two resize), then
      bit flip:        bit (8), position (n);
      byte set:        value (256), position (n);
      byte add/sub:    sign and delta as one ``_DELTAS`` index (70), position (n);
      interesting:     width (the widths that fit), endianness and value as one
                       ``_PACKED`` index, position (n - width + 1);
      block overwrite: length - 1 (m = min(4, n)), position
                       (n - length + 1), then the block's bytes from one
                       ``rng.getrandbits(8 * length)``, little-endian;
      byte swap:       two positions (n each), skipped for n < 2;
      delete block:    length - 1 (m, the room left to shrink), position
                       (n - length + 1), skipped when m < 1;
      insert block:    length - 1 (m, the room left to grow), position
                       (n + 1), then its bytes as for block overwrite,
                       skipped when m < 1.
    Fields carved from one draw are read from it modulo the product ``M`` of
    their ranges, so each combination has probability within
    ``2**-width`` of ``1 / M``: a relative bias below ``M / 2**width``.
    ``width`` is fixed once per call from the largest length ``top`` the
    call can reach (``_word_width``): with ``bound = n_ops * top * max(top,
    256)``, which no operator's ``M`` exceeds, it is ``max(30, 10 + (bound -
    1).bit_length())``.  So no field's bias reaches ``2**-10``, every
    position stays reachable at any length, and a call whose ``bound`` is at
    most ``2**20`` (a top length up to 362 with ``max_len``, 418 without)
    draws 30 bits per operator.  The stack depth's bias is below
    ``stack_max / 2**30``.  A call plans (the operator count, the resize
    bounds and the width) and runs ``_havoc_loop``; local search plans once
    per stage and calls the loop for each sample.
    """
    if not seed:
        raise ValueError("seed must be nonempty")
    if stack_max < 1:
        raise ValueError("stack_max must be >= 1")
    n_ops = 8 if max_len is not None else 6  # operators 6 and 7 resize
    n = len(seed)
    # Deletes and inserts keep the length within [low, high]; with no
    # max_len nothing resizes.
    low = n - _BYTES_PER_OP if n - _BYTES_PER_OP > 1 else 1
    if max_len is None:
        high = n
    else:
        high = n + _BYTES_PER_OP if max_len > n + _BYTES_PER_OP else max_len
    top = n if n > high else high  # no length this call reaches exceeds top
    width = 30 if top <= 256 else _word_width(n_ops, top)
    return _havoc_loop(seed, rng.getrandbits, stack_max, n_ops, low, high, width)


def _word_width(n_ops: int, top: int) -> int:
    """The operator word's width at top length ``top`` (30 up to 256)."""
    return max(30, (n_ops * top * (top if top > 256 else 256) - 1).bit_length() + 10)


def _havoc_loop(seed: bytes, gb, stack_max: int, n_ops: int, low: int, high: int,
                width: int) -> bytes:
    """``havoc_mutate``'s operator loop under its plan; ``gb`` is the rng's
    ``getrandbits``."""
    budget = _BYTES_PER_OP
    buf = bytearray(seed)
    n = len(seed)
    for _ in range(gb(30) % stack_max + 1):
        r = gb(width)
        op = r % n_ops
        r //= n_ops
        if op < 4:
            if op < 2:
                if op == 0:  # bit flip
                    buf[(r >> 3) % n] ^= 1 << (r & 7)
                else:  # byte set
                    buf[(r >> 8) % n] = r & 255
            elif op == 2:  # byte add/sub; 70 == len(_DELTAS)
                pos = r // 70 % n
                buf[pos] = (buf[pos] + _DELTAS[r % 70]) & 255
            else:  # interesting value substitution
                c, choices = _CHOICES[n if n < 4 else 4]
                w, k, packed = choices[r % c]
                r //= c
                pos = r // k % (n - w + 1)
                buf[pos:pos + w] = packed[r % k]
        elif op < 6:
            if op == 4:  # block overwrite
                m = budget if budget < n else n
                blen = r % m + 1
                pos = r // m % (n - blen + 1)
                if blen == 1:
                    buf[pos] = gb(8)
                else:
                    buf[pos:pos + blen] = gb(8 * blen).to_bytes(blen, "little")
            elif n >= 2:  # byte swap
                i, j = r % n, r // n % n
                buf[i], buf[j] = buf[j], buf[i]
        elif op == 6:  # delete block
            m = n - low if n - low < budget else budget
            if m >= 1:
                blen = r % m + 1
                pos = r // m % (n - blen + 1)
                del buf[pos:pos + blen]
                n -= blen
        else:  # insert block
            m = high - n
            if m >= 1:
                blen = r % m + 1
                pos = r // m % (n + 1)
                if blen == 1:
                    buf.insert(pos, gb(8))
                else:
                    buf[pos:pos] = gb(8 * blen).to_bytes(blen, "little")
                n += blen
    return bytes(buf)


def compute_subgradient(seed: bytes, mutant: bytes, d_seed: int,
                        d_mut: int) -> dict[int, Fraction]:
    """Element-wise slope estimate between two inputs reaching the same site.

    ``d_seed`` and ``d_mut`` are the inputs' scalarized distances.  For every
    byte position where the inputs differ, the distance delta is divided by
    the byte delta; positions with no byte delta carry no slope information
    and stay zero (absent).  Identical inputs yield an all-zero (empty)
    vector.  The inputs must have the same length.
    """
    if len(seed) != len(mutant):
        raise ValueError("subgradient requires equal-length inputs")
    delta_d = d_mut - d_seed
    g: dict[int, Fraction] = {}
    for j, (a, b) in enumerate(zip(seed, mutant)):
        if a != b:
            g[j] = Fraction(delta_d, b - a)
    return g


# Each distance row of ``target._FORMULAS`` as (a, b, folded), read off its
# values at f = -1, 0 and 1: the row is a + b * f, or a + b * abs(f) where
# folded.  b is +/-1, so a row value v inverts to f, or abs(f), = (v - a) * b.
_LINES = {key: (at0, at1 - at0, below == at1) for key, formula in _FORMULAS.items()
          for below, at0, at1 in [[eval(formula, {"f": f}) for f in (-1, 0, 1)]]}


def infer_hot_bytes(node: GuardNode, outcome: bool, seed: bytes, witness: bytes, key,
                    max_input_len: int) -> list[tuple[int, ...]]:
    """Place a guard's operand in the witness, with no exec.

    A placement is the input offsets of the operand's bytes, in compare order
    for a string, least significant byte first for an integer, and for an xor
    window (``reduce(operator.xor, window, 0)``) its first changed byte, then
    the rest in order.  Returns, by start and little-endian first, each one
    that covers a byte the witness changed from the seed, ends at or below
    ``max_input_len``, and gives the witness's ``key`` under the row of
    ``outcome`` on the zero-extended witness; the guard's offset and byte
    order are not read.  The row is inverted once, to the operand difference
    (per byte for a string) or its magnitude, which each window is then
    checked against.  The inputs must have the same length.
    """
    if len(seed) != len(witness):
        raise ValueError("operand location requires equal-length inputs")
    a, b, folded = _LINES[outcome, node.relation]
    size, signed, const, string = node.size, node.signed, node.constant, node.kind is GuardKind.STR
    xor = node.kind is GuardKind.XOR
    fold = abs if folded else operator.pos
    if string:
        # The key's tail past the window is the padding's at every start.
        const, want = const[:size].ljust(size, b"\0"), [(v - a) * b for v in key[1][:size]]
    else:
        want = (key - a) * b
    data = witness + bytes(size - 1)  # zero-extended, as the walk reads it
    placements, first = [], 0  # the first start not yet tried
    for j in compress(count(), map(operator.ne, seed, witness)):  # each changed byte
        for s in range(max(first, j - size + 1), min(j, max_input_len - size) + 1):
            window = data[s:s + size]
            if string:
                if all(map(operator.eq, map(fold, map(operator.sub, window, const)), want)):
                    placements.append(tuple(range(s, s + size)))
                continue
            if xor:
                if fold(reduce(operator.xor, window, 0) - const) == want:
                    placements.append((j, *range(s, j), *range(j + 1, s + size)))
                continue
            if fold(int.from_bytes(window, "little", signed=signed) - const) == want:
                placements.append(tuple(range(s, s + size)))
            if size > 1 and fold(int.from_bytes(window, "big", signed=signed) - const) == want:
                placements.append(tuple(range(s + size - 1, s - 1, -1)))
        first = j + 1
    return placements


def _solve(node: GuardNode, witness: bytes, offsets, root: int) -> bytes:
    """The witness with the operand at the placement ``offsets`` solved: its
    difference from the constant (per byte for a string) becomes ``root``,
    clamped to the operand's range; for an xor window, by its first byte
    alone.  Byte-space slopes diverge on multi-byte operands (a carry moves
    the distance by thousands) and absolute-value rows kink at the root, so
    the step is taken on the operand instead."""
    size = node.size
    if node.kind is GuardKind.XOR:  # the input keeps its length
        buf, rest = bytearray(witness), map((witness + bytes(size)).__getitem__, offsets[1:])
        buf[offsets[0]] = reduce(operator.xor, rest, _clamp_byte(node.constant + root))
        return bytes(buf)
    if node.kind is GuardKind.STR:
        solved = bytes(_clamp_byte(c + root) for c in node.constant[:size].ljust(size, b"\0"))
    else:
        bits = 8 * size
        low = -(1 << (bits - 1)) if node.signed else 0
        operand = max(low, min(low + (1 << bits) - 1, node.constant + root))
        solved = (operand & ((1 << bits) - 1)).to_bytes(size, "little")
    buf = bytearray(witness.ljust(max(offsets) + 1, b"\0"))
    for offset, byte in zip(offsets, solved):
        buf[offset] = byte
    return bytes(buf)


class Mutator:
    """Stage driver: local search, then root-finding inputs per branch.

    ``sample_size`` is the mutator's one setting, an int >= 2: the most
    samples local search takes per stage, the seed included.  Local search
    stops sooner, at the end of the first chunk of ``_SEARCH_CHUNK`` (32)
    samples that improves no record of a branch still on the frontier, or
    after which every such branch the seed reached has a record.  The
    campaign's plain havoc batches take exactly ``sample_size`` mutants.

    ``executor`` is any object with four names: ``run(data)``, whose
    result's ``observations`` is the trace's own site -> distance key map;
    ``run_batch(inputs, ran=[])``, which returns the ``(input, observation
    map)`` pair of each input it ran; and ``coverage.frontier`` and
    ``coverage.edge_hits``, the sets of frontier branches and covered edge
    ids, which each run keeps current.
    """

    def __init__(self, program: GuardProgram, sample_size: int):
        if sample_size.__class__ is not int or sample_size < 2:
            raise ValueError(f"sample_size must be an int >= 2, got {sample_size!r}")
        self.program = program
        self.sample_size = sample_size

    def local_search(self, seed: bytes, frontier, executor,
                     rng: random.Random) -> dict[int, SubgradientRecord]:
        """Sample the seed neighborhood and retain the best slope per branch.

        The first sample is the unmutated seed itself, which establishes the
        baseline distances the slopes are measured against; the rest are
        havoc mutants of stack ``_SEARCH_STACK``, each made when its exec
        comes up (a run that ends mid-chunk makes none past its last exec,
        bar the one ``run_batch`` takes before it finds the budget spent) and
        handed back by ``run_batch`` with its map.  They run in chunks of
        ``_SEARCH_CHUNK`` (32) samples, the first holding the seed, and
        sampling stops at ``sample_size`` samples or after the first chunk at
        whose end either no sample of the chunk raised the best norm of a
        site still on the frontier, or every site with a baseline that is
        still on the frontier has a record (a root step needs only one: it
        lands where the comparison flips, whatever the witness).  A sample's
        slope norm at a site is |Δd| · Σ_j 1/|Δbyte_j|, with Δd from the
        scalarized keys; the sum depends only on the sample, so it is taken
        once, at the sample's first site with a baseline whose scalarized
        key it moves, as an integer in units of 1/L (``_INV``), and records
        are compared by norm times L.  A site's best norm starts at 0, and
        its record is the first sample that reached its best, with ``g``
        built once, for that sample: a site no sample moved has no record.
        """
        seed_keys = {site: key for site, key in executor.run(seed).observations.items()
                     if site in frontier}
        seed_v = {site: observation_distance(key) for site, key in seed_keys.items()}
        norms = dict.fromkeys(seed_v, 0)
        best: dict[int, tuple[bytes, int | tuple[int, tuple[int, ...]]]] = {}
        live = executor.coverage.frontier
        # The plan of havoc_mutate(seed, rng, _SEARCH_STACK), made once.
        n, gb, loop, width = len(seed), rng.getrandbits, _havoc_loop, _word_width(6, len(seed))
        for start in range(0, self.sample_size, _SEARCH_CHUNK):
            count = min(start + _SEARCH_CHUNK, self.sample_size) - max(start, 1)
            ran = executor.run_batch(
                (loop(seed, gb, _SEARCH_STACK, 6, n, n, width) for _ in range(count)), [])
            improved = False
            for data, observations in ran:
                s = None
                for site, key in observations.items():
                    seed_key = seed_keys.get(site)  # every such site is in the frontier
                    if seed_key is None or key == seed_key:
                        continue
                    base = seed_v[site]
                    if (v := observation_distance(key)) == base:
                        continue
                    if s is None:
                        s = 0  # with no max_len, havoc keeps the seed's length
                        for x, y in zip(seed, data):
                            if x != y:
                                s += _INV[abs(y - x)]
                    norm = abs(v - base) * s
                    if norm > norms[site]:
                        norms[site] = norm
                        best[site] = data, key
                        improved = improved or site in live
            if not improved or all(site in best for site in seed_v if site in live):
                break
        return {site: SubgradientRecord(
                    compute_subgradient(seed, data, seed_v[site], observation_distance(key)),
                    data, key)
                for site, (data, key) in best.items()}

    def mutate_stage(self, seed: bytes, frontier, executor, rng: random.Random) -> None:
        """One full stage: sample, then fire targeted inputs for each frontier
        branch, in site order, while it stays on the frontier.  The seed is
        first zero-extended to the furthest operand window end, as
        ``Harness.execute`` extends every input, so that local search, which
        never resizes, can move a window past a short seed's end.  A record
        fires one ``_solve`` candidate per placement of its operand, in
        ``infer_hot_bytes``'s order, and only its ``witness`` and
        ``witness_key`` are read.  A branch still on the frontier has exactly
        one edge covered, its witness's, so coverage gives the outcome."""
        program = self.program
        seed = seed.ljust(program._window_end, b"\0")
        records = self.local_search(seed, frontier, executor, rng)
        coverage = executor.coverage
        for site, rec in sorted(records.items()):
            if site not in coverage.frontier:
                continue
            node = program.nodes[site]
            outcome = 2 * site in coverage.edge_hits
            root = _ROOTS[outcome, node.relation]
            for offsets in infer_hot_bytes(node, outcome, seed, rec.witness, rec.witness_key,
                                           program.max_input_len):
                if site not in coverage.frontier:
                    break
                candidate = _solve(node, rec.witness, offsets, root)
                if candidate != rec.witness:
                    executor.run(candidate)
