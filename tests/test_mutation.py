import base64
import random
from fractions import Fraction

import pytest

from conftest import make_executor
from frontierfuzz import builtin_targets, mutation
from frontierfuzz.distance import BranchDistance, observation_distance
from frontierfuzz.mutation import (
    _ARITH_MAX,
    _INTERESTING,
    Mutator,
    MutatorConfig,
    compute_subgradient,
    havoc_mutate,
    infer_hot_bytes,
    l1_norm,
    newton_step,
    round_half_away,
)
from frontierfuzz.target import Harness, program_from_dict

CFG = MutatorConfig()


class ScriptedRng:
    """Deterministic rng double that plays back scripted ``getrandbits``
    draws, each given as (expected bit width, value)."""

    def __init__(self, draws):
        self.draws = list(draws)

    def getrandbits(self, k):
        width, value = self.draws.pop(0)
        assert k == width
        return value


def _reference_havoc(seed, cfg, rng, *, stack_max=None, allow_resize=False, max_len=None):
    """The plain ``randint``/``randrange``/``choice`` formulation of havoc,
    kept as the oracle for ``havoc_mutate``'s draw contract."""
    if not seed:
        raise ValueError("seed must be nonempty")
    budget = cfg.havoc_bytes_per_op
    ops = [0, 1, 2, 3, 4]
    if budget >= 2:
        ops.append(5)
    if allow_resize:
        ops.extend((6, 7))
    buf = bytearray(seed)
    orig_len = len(seed)
    stack = rng.randint(1, stack_max if stack_max is not None else cfg.havoc_stack_max)
    for _ in range(stack):
        op = ops[rng.randrange(len(ops))]
        n = len(buf)
        if op == 0:  # bit flip
            pos = rng.randrange(n)
            buf[pos] ^= 1 << rng.randrange(8)
        elif op == 1:  # byte set
            buf[rng.randrange(n)] = rng.randrange(256)
        elif op == 2:  # byte add/sub
            pos = rng.randrange(n)
            delta = rng.randint(1, _ARITH_MAX)
            if rng.randrange(2):
                buf[pos] = (buf[pos] + delta) & 0xFF
            else:
                buf[pos] = (buf[pos] - delta) & 0xFF
        elif op == 3:  # interesting value substitution
            widths = [w for w in (1, 2, 4) if w <= n and w <= budget]
            w = widths[rng.randrange(len(widths))] if widths else 1
            pos = rng.randrange(n - w + 1)
            value = rng.choice(_INTERESTING[w])
            order = "big" if rng.randrange(2) else "little"
            buf[pos:pos + w] = (value & ((1 << (8 * w)) - 1)).to_bytes(w, order)
        elif op == 4:  # short block overwrite
            blen = rng.randint(1, min(budget, n))
            pos = rng.randrange(n - blen + 1)
            for i in range(blen):
                buf[pos + i] = rng.randrange(256)
        elif op == 5:  # byte swap
            if n >= 2:
                i = rng.randrange(n)
                j = rng.randrange(n)
                buf[i], buf[j] = buf[j], buf[i]
        elif op == 6:  # delete block
            shrink_room = min(budget + (len(buf) - orig_len), len(buf) - 1, budget)
            if shrink_room >= 1:
                blen = rng.randint(1, shrink_room)
                pos = rng.randrange(len(buf) - blen + 1)
                del buf[pos:pos + blen]
        else:  # insert block
            grow_room = budget - (len(buf) - orig_len)
            if max_len is not None:
                grow_room = min(grow_room, max_len - len(buf))
            if grow_room >= 1:
                blen = rng.randint(1, grow_room)
                pos = rng.randrange(len(buf) + 1)
                buf[pos:pos] = bytes(rng.randrange(256) for _ in range(blen))
    return bytes(buf)


class TestHavoc:
    def test_single_bit_flip(self):
        # Stack of one (3-bit draw below 4), operator 0 (3-bit draw below 6,
        # the bit flip), position 0 (3-bit draw below 4), bit 3 (4-bit draw
        # below 8).
        rng = ScriptedRng([(3, 0), (3, 0), (3, 0), (4, 3)])
        mutant = havoc_mutate(bytes(4), CFG, rng)
        assert mutant == bytes([8, 0, 0, 0])
        assert not rng.draws

    @pytest.mark.parametrize("bytes_per_op", [1, 2, 3, 4, 8])
    def test_matches_reference_draw_for_draw(self, bytes_per_op):
        # Same output bytes and same rng state after every call, across
        # stack depths, resize on and off, length caps and seed lengths.
        cfg = MutatorConfig(havoc_bytes_per_op=bytes_per_op)
        pick = random.Random(bytes_per_op)
        fast, slow = random.Random(7 * bytes_per_op), random.Random(7 * bytes_per_op)
        calls = 0
        for stack_max in (None, 1, 4, 16):
            for allow_resize in (False, True):
                for cap in ("none", "len", "len+2", "64"):
                    for length in range(1, 41):
                        seed = bytes(pick.randrange(256) for _ in range(length))
                        max_len = {"none": None, "len": length, "len+2": length + 2,
                                   "64": 64}[cap]
                        kwargs = dict(stack_max=stack_max, allow_resize=allow_resize,
                                      max_len=max_len)
                        got = havoc_mutate(seed, cfg, fast, **kwargs)
                        want = _reference_havoc(seed, cfg, slow, **kwargs)
                        assert got == want
                        assert fast.getstate() == slow.getstate()
                        calls += 1
        assert calls == 4 * 2 * 4 * 40

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
        g = compute_subgradient(bytes([5]), bytes([7]),
                                BranchDistance((11,)), BranchDistance((9,)))
        assert g == {0: Fraction(-1)}

    def test_identical_inputs_zero_vector(self):
        g = compute_subgradient(bytes([5]), bytes([5]),
                                BranchDistance((11,)), BranchDistance((11,)))
        assert g == {}
        assert l1_norm(g) == 0

    def test_elementwise_division(self):
        g = compute_subgradient(bytes([5, 0]), bytes([7, 3]),
                                BranchDistance((11,)), BranchDistance((9,)))
        assert g == {0: Fraction(-1), 1: Fraction(-2, 3)}

    def test_vector_distances_use_l1(self):
        d0 = BranchDistance((2, 2), is_vector=True)
        d1 = BranchDistance((1, 1), is_vector=True)
        g = compute_subgradient(bytes([0, 0]), bytes([2, 0]), d0, d1)
        assert g == {0: Fraction(-1)}

    def test_form_mismatch_rejected(self):
        with pytest.raises(ValueError, match="form"):
            compute_subgradient(b"a", b"b", BranchDistance((1,)),
                                BranchDistance((1, 2), is_vector=True))


class TestNewtonStep:
    def test_boundary_guard_lands_on_flip_input(self):
        out = newton_step(bytes([5]), BranchDistance((11,)), {0: Fraction(-1)})
        assert out == bytes([16])

    def test_zero_distance_returns_witness(self):
        out = newton_step(bytes([5]), BranchDistance((0,)), {0: Fraction(-1)})
        assert out == bytes([5])

    def test_clamps_to_byte_range(self):
        out = newton_step(bytes([200]), BranchDistance((120,)), {0: Fraction(-1)})
        assert out == bytes([255])

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            newton_step(bytes([5]), BranchDistance((1,)), {})

    def test_length_preserved(self):
        out = newton_step(bytes([5, 9, 9]), BranchDistance((4,)), {0: Fraction(-2)})
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
        assert stats.th == executor.execs == 32
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
            (obs,) = harness.execute(bytes([x])).observations
            return observation_distance(obs).scalar

        d_seed = dist(5)
        for x in range(256):
            assert g * (x - 5) <= dist(x) - d_seed


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
        assert hot.offsets == (4, 5, 6, 7)
        assert hot.compared_length == 4
        # Baseline plus at most one probe per differing byte.
        assert executor.execs - before <= 3

    def test_identical_mutant_yields_empty_set(self):
        program = program_from_dict(self.MAGI_DOC)
        executor = make_executor(program, frontier={0})
        hot = infer_hot_bytes(bytes(12), bytes(12), 0, executor)
        assert hot.offsets == ()

    def test_differences_outside_window_yield_empty_set(self):
        program = program_from_dict(self.MAGI_DOC)
        executor = make_executor(program, frontier={0})
        mutant = bytearray(bytes(12))
        mutant[1] = 7
        mutant[9] = 3  # past the compared window
        hot = infer_hot_bytes(bytes(12), bytes(mutant), 0, executor)
        assert hot.offsets == ()


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
        out = newton_step(rec.witness, observation_distance(rec.witness_obs), rec.g)
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites({0})
        (obs,) = harness.execute(out).observations
        flipped = obs.outcome != rec.witness_obs.outcome
        assert flipped or abs(obs.f_value) <= 1


class TestRootCorrespondence:
    @pytest.mark.parametrize("witness_byte", [0, 3, 5, 11, 15])
    def test_prediction_lands_on_flip_boundary(self, witness_byte):
        # On the boundary guard the pre-flip distance is 16 - x with slope
        # -1, so the root prediction is 16 from anywhere on the true side.
        program = le15_program()
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites({0})
        (obs,) = harness.execute(bytes([witness_byte])).observations
        predicted = newton_step(
            bytes([witness_byte]), observation_distance(obs), {0: Fraction(-1)}
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
            out = newton_step(rec.witness, observation_distance(rec.witness_obs), rec.g)
            harness = Harness(program, synthetic_time=True)
            harness.set_active_sites({0})
            (obs,) = harness.execute(out).observations
            d_out = abs(observation_distance(obs).scalar)
            d_wit = abs(observation_distance(rec.witness_obs).scalar)
            wins += d_out <= d_wit
        assert trials > 0
        assert wins / trials >= 0.95
