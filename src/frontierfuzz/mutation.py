"""Distance-guided mutation: bounded havoc sampling, subgradient estimation,
root-finding steps, and string hot-byte inference.

A mutation stage samples the seed's neighborhood with a short stack of havoc
operators, estimates for every reached frontier branch a linear lower bound
(subgradient) of its distance from the sampled (input delta, distance delta)
pairs, and then jumps each branch toward its distance root:

    new_input = witness - distance / slope

For multi-byte integer operands the step is solved in operand space and the
result written back with the declared endianness; for string comparisons the
compared window is located first by single-byte probing (hot-byte inference)
and each window byte is solved independently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .distance import BranchDistance, observation_distance, row_function
from .target import BranchObservation, GuardKind, GuardProgram, Relation

__all__ = [
    "MutatorConfig",
    "SubgradientRecord",
    "HotByteSet",
    "StageReport",
    "havoc_mutate",
    "compute_subgradient",
    "newton_step",
    "infer_hot_bytes",
    "l1_norm",
    "round_half_away",
    "Mutator",
    "INTERESTING_8",
    "INTERESTING_16",
    "INTERESTING_32",
]

# AFL-style interesting substitution values.
INTERESTING_8 = (-128, -1, 0, 1, 16, 32, 64, 100, 127)
INTERESTING_16 = (-32768, -129, 128, 255, 256, 512, 1000, 1024, 4096, 32767)
INTERESTING_32 = (-2147483648, -100663046, -32769, 32768, 65535, 65536, 100663045, 2147483647)
_INTERESTING = {1: INTERESTING_8, 2: INTERESTING_16, 4: INTERESTING_32}

_ARITH_MAX = 35

# Draw widths: CPython's ``_randbelow(m)`` takes ``m.bit_length()`` random
# bits per try and retries while the result is ``>= m``.  These are the widths
# for the fixed ranges havoc draws from.
_K_BYTE = (256).bit_length()
_K_BIT = (8).bit_length()
_K_COIN = (2).bit_length()
_K_ARITH = _ARITH_MAX.bit_length()

# Havoc operator tables keyed by (byte swap allowed, resize allowed).
_HAVOC_OPS = {
    (swap, resize): (0, 1, 2, 3, 4) + ((5,) if swap else ()) + ((6, 7) if resize else ())
    for swap in (False, True) for resize in (False, True)
}
# Interesting-value widths that fit min(len, bytes_per_op), capped at 4.
_WIDTHS = {1: (1,), 2: (1, 2), 3: (1, 2), 4: (1, 2, 4)}


@dataclass(frozen=True)
class MutatorConfig:
    """Sampling and havoc knobs for the guided mutator."""

    sample_size: int = 1024
    havoc_stack_max: int = 4
    havoc_bytes_per_op: int = 4

    def __post_init__(self):
        if self.sample_size < 2:
            raise ValueError("sample_size must be >= 2")
        if self.havoc_stack_max < 1:
            raise ValueError("havoc_stack_max must be >= 1")
        if self.havoc_bytes_per_op < 1:
            raise ValueError("havoc_bytes_per_op must be >= 1")


@dataclass
class SubgradientRecord:
    """Best slope estimate retained for one frontier branch this stage.

    ``g`` maps byte positions to exact rational slopes and ``norm`` is its
    L1 norm, computed once; the retained record is the one with the largest
    norm among sampled candidates.
    """

    g: dict[int, Fraction]
    norm: Fraction
    witness: bytes
    witness_obs: BranchObservation
    seed_obs: BranchObservation | None = None


@dataclass(frozen=True)
class HotByteSet:
    """Input byte positions that directly feed a string comparison."""

    site: int
    offsets: tuple[int, ...]
    compared_length: int


@dataclass
class StageReport:
    samples: int = 0
    newton_execs: int = 0
    probes: int = 0
    flips: int = 0
    new_edges: int = 0


def round_half_away(x) -> int:
    """Round to nearest integer, halves away from zero."""
    frac = Fraction(x)
    n, d = frac.numerator, frac.denominator
    if n >= 0:
        return (2 * n + d) // (2 * d)
    return -((-2 * n + d) // (2 * d))


def _clamp_byte(v: int) -> int:
    return 0 if v < 0 else (255 if v > 255 else v)


def l1_norm(g: dict[int, Fraction]) -> Fraction:
    return sum((abs(v) for v in g.values()), Fraction(0))


def havoc_mutate(seed: bytes, cfg: MutatorConfig, rng: random.Random, *,
                 stack_max: int | None = None, allow_resize: bool = False,
                 max_len: int | None = None) -> bytes:
    """Apply a short random stack of havoc operators to the seed.

    Every operator touches at most ``havoc_bytes_per_op`` byte positions, so a
    mutant differs from the seed in at most ``stack * bytes_per_op`` bytes.
    Length-changing operators are off by default (local search needs aligned
    inputs) and, when enabled, never move the length more than
    ``havoc_bytes_per_op`` away from the seed's.

    Draw contract: the function makes exactly the ``rng.getrandbits`` calls,
    in the same order, that the plain formulation with ``rng.randint``,
    ``rng.randrange`` and ``rng.choice`` makes on CPython, and so returns the
    same mutant and leaves ``rng`` in the same state.  Each draw below
    ``m`` inlines ``Random._randbelow(m)``: take ``m.bit_length()`` bits,
    retry while the result is ``>= m``.  The differential test in
    ``tests/test_mutation.py`` pins this against that formulation.
    """
    if not seed:
        raise ValueError("seed must be nonempty")
    gb = rng.getrandbits
    budget = cfg.havoc_bytes_per_op
    ops = _HAVOC_OPS[budget >= 2, allow_resize]
    n_ops = len(ops)
    k_ops = n_ops.bit_length()
    buf = bytearray(seed)
    orig_len = len(seed)
    top = stack_max if stack_max is not None else cfg.havoc_stack_max
    k = top.bit_length()
    stack = gb(k)
    while stack >= top:
        stack = gb(k)
    for _ in range(stack + 1):
        r = gb(k_ops)
        while r >= n_ops:
            r = gb(k_ops)
        op = ops[r]
        n = len(buf)
        if op == 0:  # bit flip
            k = n.bit_length()
            pos = gb(k)
            while pos >= n:
                pos = gb(k)
            bit = gb(_K_BIT)
            while bit >= 8:
                bit = gb(_K_BIT)
            buf[pos] ^= 1 << bit
        elif op == 1:  # byte set: the value is drawn before the position
            value = gb(_K_BYTE)
            while value >= 256:
                value = gb(_K_BYTE)
            k = n.bit_length()
            pos = gb(k)
            while pos >= n:
                pos = gb(k)
            buf[pos] = value
        elif op == 2:  # byte add/sub
            k = n.bit_length()
            pos = gb(k)
            while pos >= n:
                pos = gb(k)
            delta = gb(_K_ARITH)
            while delta >= _ARITH_MAX:
                delta = gb(_K_ARITH)
            delta += 1
            sign = gb(_K_COIN)
            while sign >= 2:
                sign = gb(_K_COIN)
            if sign:
                buf[pos] = (buf[pos] + delta) & 0xFF
            else:
                buf[pos] = (buf[pos] - delta) & 0xFF
        elif op == 3:  # interesting value substitution
            widths = _WIDTHS[min(n, budget, 4)]
            m = len(widths)
            k = m.bit_length()
            r = gb(k)
            while r >= m:
                r = gb(k)
            w = widths[r]
            m = n - w + 1
            k = m.bit_length()
            pos = gb(k)
            while pos >= m:
                pos = gb(k)
            values = _INTERESTING[w]
            m = len(values)
            k = m.bit_length()
            r = gb(k)
            while r >= m:
                r = gb(k)
            value = values[r]
            sign = gb(_K_COIN)
            while sign >= 2:
                sign = gb(_K_COIN)
            buf[pos:pos + w] = (value & ((1 << (8 * w)) - 1)).to_bytes(
                w, "big" if sign else "little")
        elif op == 4:  # short block overwrite
            m = min(budget, n)
            k = m.bit_length()
            blen = gb(k)
            while blen >= m:
                blen = gb(k)
            blen += 1
            m = n - blen + 1
            k = m.bit_length()
            pos = gb(k)
            while pos >= m:
                pos = gb(k)
            for i in range(pos, pos + blen):
                value = gb(_K_BYTE)
                while value >= 256:
                    value = gb(_K_BYTE)
                buf[i] = value
        elif op == 5:  # byte swap
            if n >= 2:
                k = n.bit_length()
                i = gb(k)
                while i >= n:
                    i = gb(k)
                j = gb(k)
                while j >= n:
                    j = gb(k)
                buf[i], buf[j] = buf[j], buf[i]
        elif op == 6:  # delete block
            m = min(budget + (n - orig_len), n - 1, budget)
            if m >= 1:
                k = m.bit_length()
                blen = gb(k)
                while blen >= m:
                    blen = gb(k)
                blen += 1
                m = n - blen + 1
                k = m.bit_length()
                pos = gb(k)
                while pos >= m:
                    pos = gb(k)
                del buf[pos:pos + blen]
        else:  # insert block
            m = budget - (n - orig_len)
            if max_len is not None:
                m = min(m, max_len - n)
            if m >= 1:
                k = m.bit_length()
                blen = gb(k)
                while blen >= m:
                    blen = gb(k)
                blen += 1
                m = n + 1
                k = m.bit_length()
                pos = gb(k)
                while pos >= m:
                    pos = gb(k)
                block = bytearray()
                for _ in range(blen):
                    value = gb(_K_BYTE)
                    while value >= 256:
                        value = gb(_K_BYTE)
                    block.append(value)
                buf[pos:pos] = block
    return bytes(buf)


def _scalarize(d: BranchDistance) -> int:
    # Vector distances collapse to their L1 norm; scalars keep their sign.
    return d.magnitude() if d.is_vector else d.scalar


def compute_subgradient(seed: bytes, mutant: bytes, d_seed: BranchDistance,
                        d_mut: BranchDistance) -> dict[int, Fraction]:
    """Element-wise slope estimate between two inputs reaching the same site.

    For every byte position where the inputs differ, the distance delta is
    divided by the byte delta; positions with no byte delta carry no slope
    information and stay zero (absent).  Identical inputs yield an all-zero
    (empty) vector.
    """
    if d_seed.is_vector != d_mut.is_vector:
        raise ValueError("distance form mismatch")
    delta_d = _scalarize(d_mut) - _scalarize(d_seed)
    width = max(len(seed), len(mutant))
    g: dict[int, Fraction] = {}
    for j in range(width):
        a = seed[j] if j < len(seed) else 0
        b = mutant[j] if j < len(mutant) else 0
        if a != b:
            g[j] = Fraction(delta_d, b - a)
    return g


def newton_step(witness: bytes, d: BranchDistance, g: dict[int, Fraction]) -> bytes:
    """Jump toward the distance root along the estimated slope.

    Each nonzero-slope byte moves by -distance/slope, rounded half away from
    zero and clamped to the byte range; all other bytes and the input length
    are unchanged.
    """
    if l1_norm(g) == 0:
        raise ValueError("newton step requires a nonzero-norm subgradient")
    value = _scalarize(d)
    out = bytearray(witness)
    for j, slope in g.items():
        if slope == 0 or j >= len(out):
            continue
        out[j] = _clamp_byte(round_half_away(witness[j] - Fraction(value, 1) / slope))
    return bytes(out)


def _single_byte_variant(seed: bytes, pos: int, value: int) -> bytes:
    buf = bytearray(seed)
    if pos >= len(buf):
        buf.extend(b"\0" * (pos + 1 - len(buf)))
    buf[pos] = value
    return bytes(buf)


def infer_hot_bytes(seed: bytes, mutant: bytes, site: int, executor) -> HotByteSet:
    """Locate the input window feeding a string comparison.

    Replays the seed with each differing mutant byte applied in isolation;
    the first probe that moves the site's distance pins one hot byte, and the
    rest of the window follows from the changed comparison index plus the
    compared length (string windows are contiguous).  Returns an empty set
    when no probe moves the distance.
    """
    base = executor.run(seed)
    base_obs = base.observations.get(site)
    if base_obs is None or base_obs.byte_diffs is None:
        return HotByteSet(site, (), 0)
    width = max(len(seed), len(mutant))
    differing = [
        j for j in range(width)
        if (seed[j] if j < len(seed) else 0) != (mutant[j] if j < len(mutant) else 0)
    ]
    for pos in differing:
        value = mutant[pos] if pos < len(mutant) else 0
        outcome = executor.run(_single_byte_variant(seed, pos, value))
        obs = outcome.observations.get(site)
        if obs is None or obs.byte_diffs is None:
            continue
        probe_d = observation_distance(obs)
        base_d = observation_distance(base_obs)
        if probe_d == base_d:
            continue
        # The changed comparison index tells us where in the window this
        # input byte landed.
        for j, (a, b) in enumerate(zip(base_d.values, probe_d.values)):
            if a != b:
                start = pos - j
                length = obs.compared_length
                return HotByteSet(site, tuple(range(start, start + length)), length)
    return HotByteSet(site, (), 0)


def _sign(v: int) -> int:
    # Zero maps to +1 so kinked rows still produce a usable step direction.
    return -1 if v < 0 else 1


class Mutator:
    """Stage driver: local search, then one root-finding input per branch.

    ``executor`` is any object with ``run(data) -> outcome`` and an ``execs``
    counter of the executions it has run, where the outcome exposes
    ``observations`` (site -> BranchObservation), ``flips``, and
    ``new_edges``; the campaign supplies one that also keeps the scheduler's
    clocks up to date.
    """

    def __init__(self, config: MutatorConfig, program: GuardProgram):
        self.config = config
        self.program = program

    def local_search(self, seed: bytes, frontier, executor,
                     rng: random.Random, k: int | None = None,
                     report: StageReport | None = None) -> dict[int, SubgradientRecord]:
        """Sample the seed neighborhood and retain the best slope per branch.

        The first of the k samples is the unmutated seed itself, which
        establishes the baseline distances the slopes are measured against.
        """
        k = self.config.sample_size if k is None else k
        records: dict[int, SubgradientRecord] = {}
        seed_obs: dict[int, BranchObservation] = {}
        for i in range(k):
            data = seed if i == 0 else havoc_mutate(seed, self.config, rng)
            outcome = executor.run(data)
            if report is not None:
                report.samples += 1
                report.flips += outcome.flips
                report.new_edges += outcome.new_edges
            if i == 0:
                seed_obs = dict(outcome.observations)
            for site, obs in outcome.observations.items():
                if site not in frontier:
                    continue
                base = seed_obs.get(site)
                if data == seed or base is None:
                    g: dict[int, Fraction] = {}
                else:
                    g = compute_subgradient(
                        seed, data,
                        observation_distance(base),
                        observation_distance(obs),
                    )
                prev = records.get(site)
                norm = l1_norm(g)
                if prev is None or norm > prev.norm:
                    records[site] = SubgradientRecord(g, norm, data, obs, base)
        return records

    def mutate_stage(self, seed: bytes, frontier, executor, rng: random.Random) -> StageReport:
        """One full stage: sample, estimate slopes, and fire one targeted
        input per frontier branch that yielded a usable estimate."""
        report = StageReport()
        records = self.local_search(seed, frontier, executor, rng, report=report)
        for site in sorted(records):
            rec = records[site]
            node = self.program.node(site)
            candidate: bytes | None = None
            if node.kind is GuardKind.STR:
                candidate = self._solve_string(seed, site, rec, executor, report)
            elif node.kind is GuardKind.INT:
                candidate = self._solve_operand(seed, site, rec)
            if candidate is None and rec.norm > 0:
                candidate = newton_step(rec.witness, observation_distance(rec.witness_obs), rec.g)
            if candidate is None or candidate == rec.witness:
                continue
            outcome = executor.run(candidate)
            report.newton_execs += 1
            report.flips += outcome.flips
            report.new_edges += outcome.new_edges
        return report

    def _solve_string(self, seed: bytes, site: int, rec: SubgradientRecord,
                      executor, report: StageReport) -> bytes | None:
        """Per-byte root solving over the inferred hot window."""
        if rec.seed_obs is None:
            return None
        witness_d = observation_distance(rec.witness_obs)
        if witness_d == observation_distance(rec.seed_obs):
            return None
        before = executor.execs
        hot = infer_hot_bytes(seed, rec.witness, site, executor)
        report.probes += executor.execs - before
        if not hot.offsets:
            return None
        node = self.program.node(site)
        row = row_function(rec.witness_obs.outcome, rec.witness_obs.relation)
        diffs = rec.witness_obs.byte_diffs
        buf = bytearray(rec.witness)
        changed = False
        for j, offset in enumerate(hot.offsets):
            if j >= node.size or j >= len(diffs):
                break  # padding positions have no input byte to solve
            component = row(diffs[j])
            if component == 0:
                continue
            slope = _row_slope(rec.witness_obs.outcome, rec.witness_obs.relation, diffs[j])
            if offset >= len(buf):
                buf.extend(b"\0" * (offset + 1 - len(buf)))
            buf[offset] = _clamp_byte(
                round_half_away(buf[offset] - Fraction(component, slope))
            )
            changed = True
        return bytes(buf) if changed else None

    def _solve_operand(self, seed: bytes, site: int, rec: SubgradientRecord) -> bytes | None:
        """Root solving in reconstructed-operand space for integer guards.

        Byte-space slopes diverge on multi-byte operands (a carry into a high
        byte moves the distance by thousands) and absolute-value distance
        rows kink at the root, so two pieces are combined instead: the
        operand-to-difference slope sampled between the seed and the witness
        (the comparison is linear in the operand, so this is kink-free), and
        the known row derivative at the witness.  The solved operand is
        written back with the declared endianness.
        """
        if rec.seed_obs is None:
            return None
        node = self.program.node(site)
        op_seed = self._read_operand(seed, node)
        op_wit = self._read_operand(rec.witness, node)
        if op_wit == op_seed:
            return None
        f_seed = rec.seed_obs.f_value
        f_wit = rec.witness_obs.f_value
        linkage = Fraction(f_wit - f_seed, op_wit - op_seed)
        if linkage == 0:
            return None
        slope = _row_slope(rec.witness_obs.outcome, rec.witness_obs.relation, f_wit) * linkage
        d_wit = observation_distance(rec.witness_obs).scalar
        solved = round_half_away(op_wit - Fraction(d_wit, 1) / slope)
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

    @staticmethod
    def _read_operand(data: bytes, node) -> int:
        chunk = data[node.offset : node.offset + node.size]
        if len(chunk) < node.size:
            chunk = chunk.ljust(node.size, b"\0")
        order = "little" if node.endian == "le" else "big"
        return int.from_bytes(chunk, order, signed=node.signed)


def _row_slope(outcome: bool, relation: Relation, f: int) -> int:
    """Derivative of the distance row with respect to the operand difference."""
    row = row_function(outcome, relation)
    probe = row(f)
    # Affine rows have slope +/-1; absolute-value rows take the sign of f
    # (with zero treated as positive so a step is still possible).
    ahead = row(f + 1)
    slope = ahead - probe
    return slope if slope != 0 else _sign(f)
