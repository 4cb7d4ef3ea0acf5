"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  The campaign grid (every suite target in every mode over ten
rng seeds) is executed once and shared by the coverage-ordering, ablation,
and control-space criteria."""

import json
import os
import random
import statistics
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from multiprocessing import get_context

import pytest

from conftest import make_executor
from frontierfuzz import builtin_targets
from frontierfuzz.campaign import Budget, Campaign, Mode
from frontierfuzz.cli import main as cli_main
from frontierfuzz.distance import observation_distance
from frontierfuzz.mutation import Mutator, infer_hot_bytes, newton_step
from frontierfuzz.target import Harness, Relation, program_from_dict
from reference import ConvexityStats, convexity_probe, distance, holds

BUDGET_EXECS = 200_000
RNG_SEEDS = range(10)
SUITE = builtin_targets.SUITE
# The suite targets whose guards are all linear or string comparisons
# (everything except the xor guard).
LINEAR_TARGETS = tuple(n for n in SUITE if n != "xor_guard")
STRICT_TARGETS = ("magic32", "magic32_be", "magic_str8")


@pytest.fixture
def verdict(capsys):
    """Print one visible pass/fail line per criterion, then assert."""

    def _verdict(number: int, description: str, ok: bool) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
        assert ok, f"criterion {number} failed: {description}"

    return _verdict


def _grid_cell(spec):
    """The final edge count and serialized log of one grid campaign; ``spec``
    is a picklable (target name, mode value, rng seed) triple."""
    name, mode, rng_seed = spec
    program = builtin_targets.load(name)
    campaign = Campaign(
        program, [bytes(program.max_input_len)], Mode(mode), Budget(max_execs=BUDGET_EXECS),
        rng_seed=rng_seed, synthetic_time=True,
    )
    log = campaign.run()
    return log.records[-1].edges_covered, log.to_jsonl()


def run_grid(specs):
    """``_grid_cell`` over ``specs``, in order, in a pool of one process per
    CPU.  Each campaign is an independent instance and the engine stays
    single-process; the logs are the same as from a serial loop.  Workers
    are spawned, so each starts from a fresh import of this module."""
    with ProcessPoolExecutor(os.cpu_count(), mp_context=get_context("spawn")) as pool:
        return list(pool.map(_grid_cell, specs))


@pytest.fixture(scope="session")
def campaign_grid():
    """Final edge counts and serialized logs for every (target, mode, seed)."""
    specs = [(name, mode.value, rng_seed)
             for name in SUITE for mode in Mode for rng_seed in RNG_SEEDS]
    results = {}
    logs = {}
    for (name, mode, _), (final, jsonl) in zip(specs, run_grid(specs)):
        results.setdefault((name, Mode(mode)), []).append(final)
        logs.setdefault((name, Mode(mode)), []).append(jsonl)
    return results, logs


def test_criterion_1_distance_table_conformance(verdict):
    # The engine's distance rows, as its observing steps store them, checked
    # exhaustively against the literal transcription in ``reference`` for
    # every relation and f in [-3, 3]: a signed byte compared with 0 reads f.
    checked = 0
    ok = True
    for relation in Relation:
        program = program_from_dict({"max_input_len": 1, "entry": 0, "nodes": [
            {"id": 0, "kind": "int", "offset": 0, "width": 1, "endian": "le", "signed": True,
             "relation": relation.value, "constant": 0, "taken": None, "nottaken": None}]})
        harness = Harness(program, synthetic_time=True)
        harness.switch_on({0})
        for f in range(-3, 4):
            checked += 1
            outcome = holds(relation, f)
            trace = harness.execute(bytes([f & 0xFF]))
            ok = ok and trace.edges == ((0,) if outcome else (1,))
            ok = ok and trace.observations == {0: distance(outcome, relation, f)}
    ok = ok and checked == 42  # 6 relations x 7 values, one outcome each
    verdict(1, f"distance table matches literal transcription on {checked} tuples", ok)


def test_criterion_2_boundary_guard_worked_example(verdict):
    ok = distance(True, Relation.LE, -10) == 11
    program = builtin_targets.load("le15")
    executor = make_executor(program, frontier={0})
    mutator = Mutator(program, 64)
    records = mutator.local_search(bytes([5]), {0}, executor, random.Random(0))
    record = records[0]
    ok = ok and record.g == {0: Fraction(-1)}
    solved = newton_step(record.witness, observation_distance(record.witness_key), record.g)
    ok = ok and solved == bytes([16])
    trace = executor.harness.execute(solved)
    ok = ok and trace.edges == (1,)  # the previously unexercised side
    verdict(2, "input 5 has distance 11 and the root step lands on 16, flipping", ok)


def test_criterion_3_greedy_optimality_oracle(verdict, capsys):
    code = cli_main([
        "verify-theorem", "--branches", "4", "--stages", "6",
        "--trials", "200", "--rng-seed", "0",
    ])
    out = capsys.readouterr().out
    verdict(3, "greedy schedule optimal on 200/200 random instances",
            code == 0 and "optimal 200/200" in out)


def test_criterion_4_coverage_ordering(verdict, campaign_grid):
    results, _ = campaign_grid
    full_ok = True
    for name in LINEAR_TARGETS:
        total = builtin_targets.load(name).total_edges
        if statistics.median(results[(name, Mode.FOX)]) != total:
            full_ok = False
    at_least = 0
    strict_ok = True
    for name in SUITE:
        fox = statistics.median(results[(name, Mode.FOX)])
        base = statistics.median(results[(name, Mode.BASE)])
        if fox >= base:
            at_least += 1
        if name in STRICT_TARGETS and not fox > base:
            strict_ok = False
    ok = full_ok and at_least >= 6 and strict_ok
    verdict(
        4,
        f"guided mode fully covers all {len(LINEAR_TARGETS)} linear/string targets "
        f"and beats baseline on {at_least}/8 (strict on magic targets)",
        ok,
    )


def test_criterion_5_ablation_ordering(verdict, campaign_grid):
    results, _ = campaign_grid
    ordered = 0
    for name in SUITE:
        fox = statistics.median(results[(name, Mode.FOX)])
        sched = statistics.median(results[(name, Mode.SCHED)])
        base = statistics.median(results[(name, Mode.BASE)])
        if fox >= sched >= base:
            ordered += 1
    verdict(5, f"mode ordering fox >= sched >= base holds on {ordered}/8 targets",
             ordered >= 6)


def test_criterion_6_control_space(verdict, campaign_grid, tmp_path):
    _, logs = campaign_grid
    frontier_ok = True
    for jsonl in logs[("chain6", Mode.FOX)]:
        records = [json.loads(line) for line in jsonl.splitlines()]
        if max(r["frontier_size"] for r in records) > 6:
            frontier_ok = False

    # The baseline needs more than the comparison budget to finish the
    # chain; the criterion reads counts at full coverage, so give it room.
    out = tmp_path / "chain6-base"
    cli_main([
        "run", "--target", "builtin:chain6", "--mode", "base",
        "--budget-execs", "3000000", "--out", str(out),
        "--rng-seed", "0", "--synthetic-time",
    ])
    records = [
        json.loads(line)
        for line in (out / "stats.jsonl").read_text().splitlines()
    ]
    total = builtin_targets.load("chain6").total_edges
    at_full = [r for r in records if r["edges_covered"] == total]
    corpus_ok = bool(at_full) and at_full[0]["corpus_size"] >= 7
    verdict(6, "guided frontier stays <= 6 while baseline corpus >= 7 at full coverage",
             frontier_ok and corpus_ok)


def _linear_probe_fixtures():
    """Inequality-relation guards with samplers that stay on one row."""

    def u8_doc(relation, constant):
        return {
            "max_input_len": 2, "entry": 0,
            "nodes": [{"id": 0, "kind": "int", "offset": 0, "width": 1,
                       "endian": "le", "signed": False, "relation": relation,
                       "constant": constant, "taken": None, "nottaken": None}],
        }

    def one_even_byte(rng, below):
        return bytes([rng.randrange(0, below, 2), 0])

    fixtures = [
        ("lt40", program_from_dict(u8_doc("lt", 40)), 0,
         lambda rng: one_even_byte(rng, 40)),
        ("le40", program_from_dict(u8_doc("le", 40)), 0,
         lambda rng: one_even_byte(rng, 40)),
        ("gt200", program_from_dict(u8_doc("gt", 200)), 0,
         lambda rng: one_even_byte(rng, 200)),
        ("ge200", program_from_dict(u8_doc("ge", 200)), 0,
         lambda rng: one_even_byte(rng, 200)),
        ("le15", builtin_targets.load("le15"), 0,
         lambda rng: bytes([rng.randrange(0, 16, 2)] + [0] * 3)),
        # Root of the mixed tree: u16 below the threshold.
        ("mixed-root", builtin_targets.load("mixed_tree"), 0,
         lambda rng: bytes([rng.randrange(0, 256, 2), 0] + [0] * 6)),
        # Deep integer guard of the mixed tree, kept on the false row.
        ("mixed-leaf", builtin_targets.load("mixed_tree"), 2,
         lambda rng: bytes([0] * 6 + [rng.randrange(0, 100, 2), 0])),
    ]
    return fixtures


def test_criterion_7_convexity_introspection(verdict):
    rng = random.Random(0)
    all_linear_ok = True
    for name, program, site, sample in _linear_probe_fixtures():
        harness = Harness(program, synthetic_time=True)
        stats = ConvexityStats()
        for _ in range(100):
            x1, x2 = sample(rng), sample(rng)
            result = convexity_probe(harness, site, x1, x2, stats)
            if result is not True:
                all_linear_ok = False
            # Equality check: twice the midpoint distance equals the sum.
            values = []
            harness.switch_on({site})
            for data in (x1, x2, bytes((a + b) // 2 for a, b in zip(x1, x2))):
                key = harness.execute(data).observations[site]
                values.append(observation_distance(key))
            if 2 * values[2] != values[0] + values[1]:
                all_linear_ok = False
        if stats.passes.get(site, 0) != 100:
            all_linear_ok = False

    xor_program = builtin_targets.load("xor_guard")
    harness = Harness(xor_program, synthetic_time=True)
    xor_stats = ConvexityStats()
    for _ in range(100):
        x1 = bytes(rng.randrange(256) for _ in range(8))
        x2 = bytes(rng.randrange(256) for _ in range(8))
        convexity_probe(harness, 0, x1, x2, xor_stats)
    xor_ok = xor_stats.fails.get(0, 0) >= 1
    verdict(7, "linear guards pass with equality 100/100, xor guard records failures",
             all_linear_ok and xor_ok)


def test_criterion_8_hot_byte_inference(verdict):
    program = builtin_targets.load("magic_str8")
    expected = tuple(range(4, 12))
    hits = 0
    for rng_seed in RNG_SEEDS:
        executor = make_executor(program, frontier={0})
        mutator = Mutator(program, 256)
        seed = bytes(16)
        records = mutator.local_search(seed, {0}, executor, random.Random(rng_seed))
        record = records.get(0)
        if record is None or record.witness == seed:
            continue
        outcome = 0 in executor.coverage.edge_hits
        placements = infer_hot_bytes(program.nodes[0], outcome, seed, record.witness,
                                     record.witness_key, program.max_input_len)
        hits += placements == [expected]
    verdict(8, f"inferred hot-byte window matches the compared window in {hits}/10 seeds",
             hits >= 9)


def test_criterion_9_determinism(verdict, tmp_path):
    flags = [
        "run", "--target", "builtin:chain6", "--mode", "fox",
        "--budget-execs", "50000", "--rng-seed", "11", "--synthetic-time",
    ]
    cli_main(flags + ["--out", str(tmp_path / "first")])
    cli_main(flags + ["--out", str(tmp_path / "second")])
    first = (tmp_path / "first" / "stats.jsonl").read_bytes()
    second = (tmp_path / "second" / "stats.jsonl").read_bytes()
    verdict(9, "identical flags and rng seed give byte-identical stats.jsonl",
             first == second)
