"""Distance-guided mutation: bounded havoc sampling, subgradient estimation,
root-finding steps, and string hot-byte inference.

A mutation stage samples the seed's neighborhood with a short stack of havoc
operators, estimates for every reached frontier branch a linear lower bound
(subgradient) of its distance from the sampled (input delta, distance delta)
pairs, and then jumps each branch toward its distance root:

    new_input = witness - distance / slope

Every distance is the order key a guard's step stored on its observation
(see ``distance``); slopes and steps use its scalarized value.  For integer
guards the step is solved in operand space, where the operand is the
constant plus the observed difference, and the result written back with the
declared endianness; for string comparisons the compared window is located
first by single-byte probing (hot-byte inference) and each window byte is
solved independently from its component of the witness's distance key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .distance import observation_distance, row_function, scalarize
from .target import BranchObservation, GuardKind, GuardProgram, Relation

__all__ = [
    "MutatorConfig",
    "SubgradientRecord",
    "havoc_mutate",
    "compute_subgradient",
    "newton_step",
    "infer_hot_bytes",
    "l1_norm",
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

# 1/δ in units of 1/L for each byte delta δ; L = lcm(1..255) makes each exact.
_L = math.lcm(*range(1, 256))
_INV = (0,) + tuple(_L // delta for delta in range(1, 256))


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

    ``g`` maps byte positions to exact rational slopes; the retained record
    is the one whose ``g`` has the largest L1 norm among sampled candidates.
    ``g`` is built only for a record that won with a nonzero norm (see
    ``Mutator.local_search``), so it is nonempty exactly when that norm is.
    """

    g: dict[int, Fraction]
    witness: bytes
    witness_obs: BranchObservation
    seed_obs: BranchObservation | None = None


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
    if l1_norm(g) == 0:
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
    the first probe that moves the site's distance pins one hot byte, and the
    rest of the window follows from the changed comparison index plus the
    compared length (string windows are contiguous).  Returns the window's
    input offsets, one per compared position, or ``()`` when no probe moves
    the distance.  The inputs must have the same length.
    """
    if len(seed) != len(mutant):
        raise ValueError("hot-byte inference requires equal-length inputs")
    base = executor.run(seed)
    base_obs = base.observations.get(site)
    if base_obs is None or base_obs.byte_diffs is None:
        return ()
    differing = [j for j, (a, b) in enumerate(zip(seed, mutant)) if a != b]
    for pos in differing:
        probe = bytearray(seed)
        probe[pos] = mutant[pos]
        outcome = executor.run(bytes(probe))
        obs = outcome.observations.get(site)
        if obs is None or obs.byte_diffs is None or obs.key == base_obs.key:
            continue
        # The changed comparison index tells us where in the window this
        # input byte landed; a vector key is (L1, values).
        for j, (a, b) in enumerate(zip(base_obs.key[1], obs.key[1])):
            if a != b:
                start = pos - j
                return tuple(range(start, start + len(obs.byte_diffs)))
    return ()


class Mutator:
    """Stage driver: local search, then one root-finding input per branch.

    ``executor`` is any object with ``run(data) -> outcome``, where the
    outcome exposes ``observations`` (site -> BranchObservation) and
    ``flips`` (frontier branches the input flipped); the campaign supplies
    one that also keeps coverage, the corpus and the scheduler's clocks up
    to date.
    """

    def __init__(self, config: MutatorConfig, program: GuardProgram):
        self.config = config
        self.program = program

    def local_search(self, seed: bytes, frontier, executor,
                     rng: random.Random, k: int | None = None) -> dict[int, SubgradientRecord]:
        """Sample the seed neighborhood and retain the best slope per branch.

        The first of the k samples is the unmutated seed itself, which
        establishes the baseline distances the slopes are measured against.
        A sample's slope norm at a site is |Δd| · Σ_j 1/|Δbyte_j|; the sum
        depends only on the sample, so it is taken once, as an integer in
        units of 1/L (``_INV``), and records are compared by norm times L.
        Δd comes from the observations' scalarized distance keys; ``g`` is
        built only for a record that wins with a nonzero norm.
        """
        k = self.config.sample_size if k is None else k
        if k < 1:
            return {}
        seed_obs = executor.run(seed).observations
        seed_v = {site: scalarize(obs.key) for site, obs in seed_obs.items() if site in frontier}
        records = {site: SubgradientRecord({}, seed, seed_obs[site], seed_obs[site])
                   for site in seed_v}
        norms = dict.fromkeys(records, 0)
        for _ in range(k - 1):
            data = havoc_mutate(seed, self.config, rng)
            observations = executor.run(data).observations
            s = 0  # without allow_resize, havoc keeps the seed's length
            for x, y in zip(seed, data):
                if x != y:
                    s += _INV[abs(y - x)]
            for site, obs in observations.items():
                if site not in frontier:
                    continue
                base = seed_v.get(site)
                if base is None or not s:
                    if site not in records:  # first reached without a seed baseline
                        records[site] = SubgradientRecord({}, data, obs)
                        norms[site] = 0
                    continue
                v = scalarize(obs.key)
                norm = abs(v - base) * s
                if norm > norms[site]:
                    norms[site] = norm
                    g = compute_subgradient(seed, data, base, v)
                    records[site] = SubgradientRecord(g, data, obs, seed_obs[site])
        return records

    def mutate_stage(self, seed: bytes, frontier, executor, rng: random.Random) -> None:
        """One full stage: sample, estimate slopes, and fire one targeted
        input per frontier branch that yielded a usable estimate."""
        records = self.local_search(seed, frontier, executor, rng)
        for site in sorted(records):
            rec = records[site]
            node = self.program.node(site)
            candidate: bytes | None = None
            if node.kind is GuardKind.STR:
                candidate = self._solve_string(seed, site, rec, executor)
            elif node.kind is GuardKind.INT:
                candidate = self._solve_operand(site, rec)
            if candidate is None and rec.g:
                candidate = newton_step(rec.witness, observation_distance(rec.witness_obs), rec.g)
            if candidate is None or candidate == rec.witness:
                continue
            executor.run(candidate)

    def _solve_string(self, seed: bytes, site: int, rec: SubgradientRecord,
                      executor) -> bytes | None:
        """Per-byte root solving over the inferred hot window."""
        if rec.seed_obs is None:
            return None
        if rec.witness_obs.key == rec.seed_obs.key:
            return None
        offsets = infer_hot_bytes(seed, rec.witness, site, executor)
        if not offsets:
            return None
        obs = rec.witness_obs
        buf = bytearray(rec.witness)
        changed = False
        # Positions past the window are padding, with no input byte to solve.
        window = offsets[:self.program.node(site).size]
        for offset, f, component in zip(window, obs.byte_diffs, obs.key[1]):
            if component == 0:
                continue
            slope = _row_slope(obs.outcome, obs.relation, f)
            if offset >= len(buf):
                buf.extend(b"\0" * (offset + 1 - len(buf)))
            # The slope is +/-1, so dividing by it is multiplying by it.
            buf[offset] = _clamp_byte(buf[offset] - component * slope)
            changed = True
        return bytes(buf) if changed else None

    def _solve_operand(self, site: int, rec: SubgradientRecord) -> bytes | None:
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
        obs = rec.witness_obs
        f = obs.f_value
        if rec.seed_obs is None or f == rec.seed_obs.f_value:
            return None
        node = self.program.node(site)
        solved = node.constant + f - obs.key * _row_slope(obs.outcome, obs.relation, f)
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
    row = row_function(outcome, relation)
    return row(f + 1) - row(f)
