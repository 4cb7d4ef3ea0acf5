"""Distance-guided mutation: bounded havoc sampling, subgradient estimation,
root-finding steps, and string hot-byte inference.

A mutation stage samples the seed's neighborhood with a short stack of havoc
operators, until a chunk of samples improves no estimate or every live branch
has one, estimates a linear lower bound (subgradient) of the distance from the
sampled (input delta, distance delta) pairs for every frontier branch that
some sample moved away from the seed's distance, and then jumps each such
branch toward its distance root:

    new_input = witness - distance / slope

Every distance is the order key a guard's step stored in the observation map
(see ``distance``); slopes and steps use its scalarized value.  The root
solvers read the raw feedback behind a key (``target.guard_feedback``) once
per record, for its witness.  For integer guards the step is solved
in operand space, where the operand is the constant plus the observed
difference, and the result written back with the declared endianness; for
string comparisons the compared window is located first by single-byte
probing (hot-byte inference) and each window byte is solved independently
from its component of the witness's distance key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .distance import observation_distance
from .target import _ROWS, GuardKind, GuardProgram, Relation, guard_feedback

__all__ = [
    "SubgradientRecord",
    "havoc_mutate",
    "compute_subgradient",
    "newton_step",
    "infer_hot_bytes",
    "round_half_away",
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
# improves no record or leaves every live branch with one.
_SEARCH_CHUNK = 64

# An operator carves its ranged fields from its own 30-bit draw only while the
# product of every range it takes from that draw stays at or below this.
_CARVE = 1 << 20
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


@dataclass
class SubgradientRecord:
    """Best slope estimate retained for one frontier branch this stage.

    ``g`` maps byte positions to exact rational slopes, one nonzero slope per
    byte where ``witness`` differs from the seed; of the samples local search
    took before it stopped that reached the branch, the witness is the first
    whose ``g`` has the largest L1 norm.
    A record exists only for a nonzero norm (see ``Mutator.local_search``),
    so ``witness_key``, the witness's distance order key, differs from the
    seed's.
    """

    g: dict[int, Fraction]
    witness: bytes
    witness_key: int | tuple[int, tuple[int, ...]]


def round_half_away(x) -> int:
    """Round to nearest integer, halves away from zero."""
    frac = Fraction(x)
    n, d = frac.numerator, frac.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


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
    Each operator then takes one ``rng.getrandbits(30)``, even one that is
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
    their ranges, so each combination has probability within ``2**-30`` of
    ``1 / M``: a relative bias below ``M / 2**30``.  The stack depth's bias is
    thus below ``stack_max / 2**30``.  An operator carves its length and
    positions only while ``M``, taken with the largest position range, is at
    most ``2**20``, so no bias exceeds ``2**-10``; otherwise each of them is an
    exact ``rng.randrange`` draw, and every position stays reachable at any
    length.  Whether every operator carves is decided once per call, from
    the largest length the call can reach; only when some might not are the
    products tested per operator.  The draws are the same either way.
    """
    if not seed:
        raise ValueError("seed must be nonempty")
    if stack_max < 1:
        raise ValueError("stack_max must be >= 1")
    gb = rng.getrandbits
    budget = _BYTES_PER_OP
    n_ops = 8 if max_len is not None else 6  # operators 6 and 7 resize
    lim = _CARVE // n_ops  # a product of ranges m fits when n_ops * m <= _CARVE
    buf = bytearray(seed)
    n = len(seed)
    # Deletes and inserts keep the length within [low, high]; with no
    # max_len nothing resizes.
    low = n - budget if n - budget > 1 else 1
    if max_len is None:
        high = n
    else:
        high = n + budget if max_len > n + budget else max_len
    # No length this call reaches exceeds top, and the byte set's and the
    # swap's products at top bound every operator's: when both fit, every
    # field carves and the per-operator tests are skipped.
    top = n if n > high else high
    carve = top << 8 <= lim and top * top <= lim
    for _ in range(gb(30) % stack_max + 1):
        r = gb(30)
        op = r % n_ops
        r //= n_ops
        if op < 4:
            if op < 2:
                if op == 0:  # bit flip
                    pos = (r >> 3) % n if carve or n << 3 <= lim else rng.randrange(n)
                    buf[pos] ^= 1 << (r & 7)
                else:  # byte set
                    buf[(r >> 8) % n if carve or n << 8 <= lim else rng.randrange(n)] = r & 255
            elif op == 2:  # byte add/sub; 70 == len(_DELTAS)
                pos = r // 70 % n if carve or 70 * n <= lim else rng.randrange(n)
                buf[pos] = (buf[pos] + _DELTAS[r % 70]) & 255
            else:  # interesting value substitution
                c, choices = _CHOICES[n if n < 4 else 4]
                w, k, packed = choices[r % c]
                r //= c
                m = n - w + 1
                pos = r // k % m if carve or c * k * m <= lim else rng.randrange(m)
                buf[pos:pos + w] = packed[r % k]
        elif op < 6:
            if op == 4:  # block overwrite
                m = budget if budget < n else n
                if carve or m * n <= lim:
                    blen = r % m + 1
                    pos = r // m % (n - blen + 1)
                else:
                    blen = rng.randrange(m) + 1
                    pos = rng.randrange(n - blen + 1)
                if blen == 1:
                    buf[pos] = gb(8)
                else:
                    buf[pos:pos + blen] = gb(8 * blen).to_bytes(blen, "little")
            elif n >= 2:  # byte swap
                if carve or n * n <= lim:
                    i, j = r % n, r // n % n
                else:
                    i, j = rng.randrange(n), rng.randrange(n)
                buf[i], buf[j] = buf[j], buf[i]
        elif op == 6:  # delete block
            m = n - low if n - low < budget else budget
            if m >= 1:
                if carve or m * n <= lim:
                    blen = r % m + 1
                    pos = r // m % (n - blen + 1)
                else:
                    blen = rng.randrange(m) + 1
                    pos = rng.randrange(n - blen + 1)
                del buf[pos:pos + blen]
                n -= blen
        else:  # insert block
            m = high - n
            if m >= 1:
                if carve or m * (n + 1) <= lim:
                    blen = r % m + 1
                    pos = r // m % (n + 1)
                else:
                    blen = rng.randrange(m) + 1
                    pos = rng.randrange(n + 1)
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


def newton_step(witness: bytes, d: int, g: dict[int, Fraction]) -> bytes:
    """Jump toward the distance root along the estimated slope.

    ``d`` is the witness's scalarized distance.  Each nonzero-slope byte
    moves by -d/slope, rounded half away from zero and clamped to the byte
    range; all other bytes and the input length are unchanged.
    """
    if not any(g.values()):
        raise ValueError("newton step requires a nonzero-norm subgradient")
    out = bytearray(witness)
    for j, slope in g.items():
        if slope == 0 or j >= len(out):
            continue
        out[j] = _clamp_byte(round_half_away(witness[j] - Fraction(d) / slope))
    return bytes(out)


def infer_hot_bytes(seed: bytes, mutant: bytes, site: int, executor) -> tuple[int, ...]:
    """Locate the input window feeding a string comparison.

    Replays the seed with each differing mutant byte applied in isolation;
    the first probe that changes exactly one component of the site's
    distance key pins one hot byte, and the rest of the window follows from
    that component's index plus the compared length (string windows are
    contiguous).  A probe that flips the comparison switches the distance
    row, so its changed components say nothing about where the probed byte
    landed, and it covers the branch, which leaves the frontier: probing
    ends there, with no window.  Returns the window's input offsets, one per
    compared position, or ``()`` when no probe pins one.  The inputs must
    have the same length.
    """
    if len(seed) != len(mutant):
        raise ValueError("hot-byte inference requires equal-length inputs")
    base_key = executor.run(seed).observations.get(site)
    if base_key.__class__ is not tuple:  # missed, or not a string site
        return ()
    node = executor.harness.program.nodes[site]
    outcome = guard_feedback(node, seed)[0]
    differing = [j for j, (a, b) in enumerate(zip(seed, mutant)) if a != b]
    for pos in differing:
        probe = seed[:pos] + mutant[pos:pos + 1] + seed[pos + 1:]
        key = executor.run(probe).observations.get(site)
        if key.__class__ is not tuple:
            continue
        if guard_feedback(node, probe)[0] != outcome:
            return ()  # the probe flipped the branch
        # The changed comparison index tells us where in the window this
        # input byte landed; a vector key is (L1, values), one per position.
        changed = [j for j, (a, b) in enumerate(zip(base_key[1], key[1])) if a != b]
        if len(changed) == 1:
            start = pos - changed[0]
            return tuple(range(start, start + len(key[1])))
    return ()


class Mutator:
    """Stage driver: local search, then one root-finding input per branch.

    ``sample_size`` is the mutator's one setting, an int >= 2: the most
    samples local search takes per stage, the seed included.  Local search
    stops sooner, at the end of the first chunk of ``_SEARCH_CHUNK`` (64)
    samples that improves no record of a branch still on the frontier, or
    after which every such branch the seed reached has a record.  The
    campaign's plain havoc batches take exactly ``sample_size`` mutants.

    ``executor`` is any object with ``run(data) -> outcome``, whose
    ``observations`` is the trace's own site -> distance key map and ``flips``
    the frontier branches the input flipped, ``run_batch(inputs, ran=[])``,
    the ``(input, observation map)`` pair of each input it ran, a
    ``coverage.frontier`` that its runs keep current, and a
    ``harness.program``, the program it runs.
    """

    def __init__(self, program: GuardProgram, sample_size: int = 1024):
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
        ``_SEARCH_CHUNK`` samples, the first chunk holding the seed, and
        sampling stops at ``sample_size`` samples or after the first chunk at
        whose end either no sample of the chunk raised the best norm of a
        site still on the frontier, or every site with a baseline that is
        still on the frontier has a record (the operand and string solvers
        need only one, as they recompute the witness's raw feedback).  A sample's slope norm at a site is
        |Δd| · Σ_j 1/|Δbyte_j|; the sum depends only on the sample, so it is
        taken once, as an integer in units of 1/L (``_INV``), and records are
        compared by norm times L.  Δd comes from the observations' scalarized
        distance keys.  Only a frontier site the seed reached has a baseline,
        and only a sample that moves its scalarized key has a nonzero norm;
        the sum is taken at a sample's first such site.  A site's best norm
        starts at 0, and its record is the first sample that reached its
        best, with ``g`` built once, for that sample: a site no sample moved
        has no record, since no root step could use one.
        """
        seed_keys = {site: key for site, key in executor.run(seed).observations.items()
                     if site in frontier}
        seed_v = {site: observation_distance(key) for site, key in seed_keys.items()}
        norms = dict.fromkeys(seed_v, 0)
        best: dict[int, tuple[bytes, int | tuple[int, tuple[int, ...]]]] = {}
        live = executor.coverage.frontier
        for start in range(0, self.sample_size, _SEARCH_CHUNK):
            count = min(start + _SEARCH_CHUNK, self.sample_size) - max(start, 1)
            ran = executor.run_batch(
                (havoc_mutate(seed, rng, _SEARCH_STACK) for _ in range(count)), [])
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
        """One full stage: sample, estimate slopes, and fire one targeted
        input per frontier branch that has a record and no earlier exec of the
        stage flipped.  A string or integer guard's own solver goes first; the
        byte-space Newton step takes any record it gives no candidate for."""
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
                candidate = self._solve_operand(site, rec)
            if candidate is None:
                candidate = newton_step(rec.witness, observation_distance(rec.witness_key), rec.g)
            if candidate != rec.witness:
                executor.run(candidate)

    def _solve_string(self, seed: bytes, site: int, rec: SubgradientRecord,
                      executor) -> bytes | None:
        """Per-byte root solving over the inferred hot window."""
        offsets = infer_hot_bytes(seed, rec.witness, site, executor)
        if not offsets:
            return None
        node = self.program.nodes[site]
        outcome, diffs = guard_feedback(node, rec.witness)
        buf = bytearray(rec.witness)
        changed = False
        # Positions past the window or max_input_len have no input byte to solve.
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

    def _solve_operand(self, site: int, rec: SubgradientRecord) -> bytes:
        """Root solving in operand space for integer guards.

        Byte-space slopes diverge on multi-byte operands (a carry into a high
        byte moves the distance by thousands) and absolute-value distance
        rows kink at the root, so the step is taken on the operand instead.
        An integer guard's difference is ``f = operand - constant``, so the
        witness's operand is ``constant + f`` and the distance's slope in the
        operand is the row's derivative at ``f``, which is +/-1: dividing
        the distance by it is multiplying by it.  The solved operand is
        clamped to the operand's range and written back with the declared
        endianness.
        """
        node = self.program.nodes[site]
        outcome, f = guard_feedback(node, rec.witness)
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


def _row_slope(outcome: bool, relation: Relation, f: int) -> int:
    """Derivative of the distance row with respect to the operand difference:
    the forward difference, which is +/-1 for every row at every integer."""
    row = _ROWS[outcome, relation]
    return row(f + 1) - row(f)
