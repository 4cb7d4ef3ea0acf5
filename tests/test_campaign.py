import hashlib
import json
import random

import pytest

from conftest import make_executor
from frontierfuzz import builtin_targets
from frontierfuzz.campaign import (
    Budget,
    Campaign,
    ConvexityStats,
    Mode,
    convexity_probe,
)
from frontierfuzz.coverage import recompute_frontier
from frontierfuzz.distance import observation_distance, row_function
from frontierfuzz.mutation import Mutator, MutatorConfig
from frontierfuzz.target import Harness, Relation, program_from_dict


def zero_seed(program):
    return bytes(program.max_input_len)


class TestBudget:
    def test_needs_one_bound(self):
        with pytest.raises(ValueError, match="bound"):
            Budget()

    def test_exec_bound(self):
        budget = Budget(max_execs=10)
        assert not budget.exhausted(9, 0)
        assert budget.exhausted(10, 0)

    def test_time_bound(self):
        budget = Budget(max_time_ns=100)
        assert budget.exhausted(0, 100)

    def test_negative_bounds_rejected(self):
        with pytest.raises(ValueError, match="max_execs"):
            Budget(max_execs=-1)
        with pytest.raises(ValueError, match="max_time_ns"):
            Budget(max_time_ns=-1)


class TestRun:
    @pytest.mark.parametrize("mode", list(Mode))
    def test_trivial_guard_all_modes_cover_quickly(self, mode):
        program = builtin_targets.load("le15")
        log = Campaign(program, [bytes([5])], mode, Budget(max_execs=50_000), rng_seed=0).run()
        final = log.records[-1]
        assert final.edges_covered == 2
        execs = [r.execs for r in log.records]
        edges = [r.edges_covered for r in log.records]
        assert execs == sorted(execs)
        assert edges == sorted(edges)

    def test_zero_budget_runs_only_seeds(self):
        program = builtin_targets.load("magic32")
        log = Campaign(program, [zero_seed(program)], Mode.FOX, Budget(max_execs=0),
                       rng_seed=0).run()
        assert [r.stage for r in log.records] == [0]
        # Initial seed execution plus its switch-on replay.
        assert log.records[-1].execs == 2

    def test_zero_budget_base_mode_runs_seeds_once(self):
        program = builtin_targets.load("magic32")
        log = Campaign(program, [zero_seed(program)], Mode.BASE, Budget(max_execs=0),
                       rng_seed=0).run()
        assert log.records[-1].execs == 1

    def test_empty_seed_list_rejected(self):
        program = builtin_targets.load("le15")
        with pytest.raises(ValueError, match="seed"):
            Campaign(program, [], Mode.FOX, Budget(max_execs=10))

    def test_empty_seed_rejected(self):
        program = builtin_targets.load("le15")
        with pytest.raises(ValueError, match="nonempty"):
            Campaign(program, [bytes([5]), b""], Mode.FOX, Budget(max_execs=10))

    def test_overlong_seed_rejected(self):
        program = builtin_targets.load("le15")
        with pytest.raises(ValueError, match="max_input_len"):
            Campaign(program, [bytes(10)], Mode.FOX, Budget(max_execs=10))

    def test_campaign_single_use(self):
        program = builtin_targets.load("le15")
        campaign = Campaign(program, [bytes([5])], Mode.FOX, Budget(max_execs=100))
        campaign.run()
        with pytest.raises(RuntimeError, match="single-use"):
            campaign.run()

    def test_reproducible_logs(self):
        program = builtin_targets.load("chain6")
        kwargs = dict(mode=Mode.FOX, budget=Budget(max_execs=30_000), rng_seed=42)
        first = Campaign(program, [zero_seed(program)], **kwargs).run()
        second = Campaign(program, [zero_seed(program)], **kwargs).run()
        assert first.to_jsonl() == second.to_jsonl()

    def test_objective_accounting(self):
        program = builtin_targets.load("mixed_tree")
        campaign = Campaign(program, [zero_seed(program)], Mode.FOX,
                            Budget(max_execs=50_000), rng_seed=3)
        log = campaign.run()
        rows = log.records
        deltas = [rows[0].edges_covered] + [
            b.edges_covered - a.edges_covered for a, b in zip(rows, rows[1:])
        ]
        assert sum(deltas) == rows[-1].edges_covered
        assert rows[-1].edges_covered == len(campaign.coverage.edge_hits)

    def test_budget_respected_modulo_final_stage(self):
        program = builtin_targets.load("magic_str8")
        log = Campaign(program, [zero_seed(program)], Mode.BASE, Budget(max_execs=5_000),
                       rng_seed=0).run()
        # The budget check runs before each execution, so overshoot is at
        # most one in-flight execution.
        assert log.records[-1].execs <= 5_001

    def test_findings_collected_on_bug_target(self):
        program = builtin_targets.load("bug_chain")
        campaign = Campaign(program, [zero_seed(program)], Mode.FOX,
                            Budget(max_execs=100_000), rng_seed=1)
        campaign.run()
        assert campaign.findings
        exec_index, data = campaign.findings[0]
        trace = Harness(program, synthetic_time=True).execute(data)
        assert trace.bug_hits == (2,)

    def test_corpus_entries_record_first_cover_edges(self):
        program = builtin_targets.load("chain6")
        campaign = Campaign(program, [zero_seed(program)], Mode.FOX,
                            Budget(max_execs=50_000), rng_seed=0)
        campaign.run()
        seen = set()
        for entry in campaign.corpus.entries:
            assert entry.new_edges
            assert not (entry.new_edges & seen)
            seen |= entry.new_edges
        assert seen == campaign.coverage.edge_hits

    def test_base_mode_never_activates_distance_reporting(self):
        program = builtin_targets.load("chain6")
        campaign = Campaign(program, [zero_seed(program)], Mode.BASE,
                            Budget(max_execs=3_000), rng_seed=0)
        calls = []
        original = campaign.harness.set_active_sites
        campaign.harness.set_active_sites = lambda sites: (calls.append(set(sites)),
                                                           original(sites))[1]
        campaign.run()
        assert not calls
        assert not campaign.scheduler.stats

    def test_top_seed_inputs_reach_their_branches(self):
        # Every recorded top seed must still reach its frontier branch when
        # re-executed.
        program = builtin_targets.load("chain6")
        campaign = Campaign(program, [zero_seed(program)], Mode.FOX,
                            Budget(max_execs=2_500), rng_seed=2)
        campaign.run()
        harness = Harness(program, synthetic_time=True)
        for site, stats in campaign.scheduler.stats.items():
            trace = harness.execute(stats.record.best_input)
            assert site in {e // 2 for e in trace.edges}

    def test_scheduler_fields_logged(self):
        program = builtin_targets.load("chain6")
        log = Campaign(program, [zero_seed(program)], Mode.FOX, Budget(max_execs=30_000),
                       rng_seed=0).run()
        scheduled = [r for r in log.records if r.scheduled_branch is not None]
        assert scheduled
        for r in scheduled:
            assert r.sched_logprob is not None
            assert r.sched_sc >= 1


class TestActiveSiteContract:
    def test_active_sites_always_equal_recomputed_frontier(self):
        program = builtin_targets.load("chain6")
        campaign = Campaign(program, [zero_seed(program)], Mode.FOX,
                            Budget(max_execs=30_000), rng_seed=5)
        calls = []
        original = campaign.harness.set_active_sites

        def spy(sites):
            calls.append((frozenset(sites), recompute_frontier(campaign.coverage)))
            return original(sites)

        campaign.harness.set_active_sites = spy
        campaign.run()
        assert calls
        for requested, pure in calls:
            assert requested == pure


class TestFallback:
    def test_orphan_node_triggers_round_robin_fallback(self):
        # An orphan guard is valid but unreachable: the frontier empties
        # while coverage stays incomplete, so stages fall back to
        # round-robin havoc until the budget runs out.
        doc = {
            "max_input_len": 4,
            "entry": 0,
            "nodes": [
                {"id": 0, "kind": "int", "offset": 0, "width": 1, "endian": "le",
                 "signed": False, "relation": "le", "constant": 15,
                 "taken": None, "nottaken": None},
                {"id": 1, "kind": "int", "offset": 1, "width": 1, "endian": "le",
                 "signed": False, "relation": "eq", "constant": 9,
                 "taken": None, "nottaken": None},
            ],
        }
        program = program_from_dict(doc)
        log = Campaign(program, [bytes([5, 0, 0, 0])], Mode.FOX, Budget(max_execs=3_000),
                       rng_seed=0).run()
        final = log.records[-1]
        assert final.edges_covered < program.total_edges
        assert final.execs >= 3_000
        fallback_records = [r for r in log.records if r.fallback]
        assert fallback_records
        assert all(r.scheduled_branch is None for r in fallback_records)


class TestControlSpaceTrend:
    def test_chain_frontier_stays_small_while_base_corpus_grows(self):
        program = builtin_targets.load("chain6")
        fox = Campaign(program, [zero_seed(program)], Mode.FOX,
                       Budget(max_execs=100_000), rng_seed=0)
        fox_log = fox.run()
        assert max(r.frontier_size for r in fox_log.records) <= 6
        base = Campaign(program, [zero_seed(program)], Mode.BASE,
                        Budget(max_execs=3_000_000), rng_seed=0)
        base_log = base.run()
        full = [r for r in base_log.records if r.edges_covered == program.total_edges]
        assert full and full[0].corpus_size > 6


class TestFlipImpliesDecrease:
    def test_flipping_input_ends_below_prior_minimum(self):
        # Track every observation at the boundary guard until the flip; the
        # flipping input's value under the pre-flip distance row must fall
        # below the minimum seen before it.
        program = builtin_targets.load("le15")
        executor = make_executor(program, frontier={0})
        mutator = Mutator(MutatorConfig(sample_size=256), program)
        trajectory = []
        original = executor.run

        def tracing_run(data):
            out = original(data)
            obs = out.observations.get(0)
            if obs is not None:
                trajectory.append((out.flips, obs))
            return out

        executor.run = tracing_run
        mutator.mutate_stage(bytes([5]), {0}, executor, random.Random(0))
        flip_index = next(i for i, (flips, _) in enumerate(trajectory) if flips)
        pre_flip = [obs for _, obs in trajectory[:flip_index]]
        assert pre_flip
        prior_min = min(observation_distance(o).scalar for o in pre_flip)
        flip_obs = trajectory[flip_index][1]
        old_row = row_function(True, Relation.LE)
        assert old_row(flip_obs.f_value) < prior_min


def xor_gate_program():
    # Child guard reachable only when the first two bytes xor to 0x10:
    # a non-convex reach set for midpoint probing.
    doc = {
        "max_input_len": 4,
        "entry": 0,
        "nodes": [
            {"id": 0, "kind": "xor", "offset": 0, "length": 2, "relation": "eq",
             "constant": 0x10, "taken": 1, "nottaken": None},
            {"id": 1, "kind": "int", "offset": 2, "width": 1, "endian": "le",
             "signed": False, "relation": "le", "constant": 15,
             "taken": None, "nottaken": None},
        ],
    }
    return program_from_dict(doc)


class TestConvexityProbe:
    def test_linear_guard_passes_with_equality(self):
        program = builtin_targets.load("le15")
        harness = Harness(program, synthetic_time=True)
        # Distances 4 and 8 around the boundary: the midpoint sits at 6.
        assert convexity_probe(harness, 0, bytes([12]), bytes([8])) is True

    def test_non_convex_pair_fails(self):
        program = builtin_targets.load("xor_guard")
        harness = Harness(program, synthetic_time=True)
        # Both endpoints xor to the constant; their midpoint xors to zero.
        x1 = bytes([0x40, 0x1D]) + bytes(6)
        x2 = bytes([0x1D, 0x40]) + bytes(6)
        stats = ConvexityStats()
        assert convexity_probe(harness, 0, x1, x2, stats) is False
        assert stats.fails[0] == 1

    def test_midpoint_missing_site_is_non_probe(self):
        program = xor_gate_program()
        harness = Harness(program, synthetic_time=True)
        x1 = bytes([0x10, 0x00, 5, 0])
        x2 = bytes([0x00, 0x10, 5, 0])
        stats = ConvexityStats()
        assert convexity_probe(harness, 1, x1, x2, stats) is None
        assert stats.non_probes[1] == 1

    def test_unequal_lengths_rejected(self):
        program = builtin_targets.load("le15")
        harness = Harness(program, synthetic_time=True)
        with pytest.raises(ValueError, match="equal-length"):
            convexity_probe(harness, 0, bytes(1), bytes(2))

    def test_xor_sampled_ratio_below_one(self):
        program = builtin_targets.load("xor_guard")
        harness = Harness(program, synthetic_time=True)
        rng = random.Random(0)
        stats = ConvexityStats()
        for _ in range(100):
            x1 = bytes(rng.randrange(256) for _ in range(8))
            x2 = bytes(rng.randrange(256) for _ in range(8))
            convexity_probe(harness, 0, x1, x2, stats)
        assert stats.ratio(0) < 1.0

    def test_probe_restores_active_sites(self):
        program = builtin_targets.load("le15")
        harness = Harness(program, synthetic_time=True)
        harness.set_active_sites(set())
        convexity_probe(harness, 0, bytes([1]), bytes([3]))
        assert harness.active_sites == frozenset()


class TestJsonl:
    def test_records_serialize_with_stable_field_order(self):
        program = builtin_targets.load("le15")
        log = Campaign(program, [bytes([5])], Mode.FOX, Budget(max_execs=2_000), rng_seed=0).run()
        lines = log.to_jsonl().splitlines()
        first = json.loads(lines[0])
        assert list(first) == [
            "t_ns", "execs", "edges_covered", "frontier_size", "corpus_size",
            "flips", "mode", "stage", "scheduled_branch", "sched_logprob",
            "sched_sc", "fallback",
        ]


# sha256 of CampaignLog.to_jsonl() at 3k execs, rng seed 0, all-zero seed.
# A change that alters the RNG draws or any scheduling decision changes these;
# such a change must update them and say so.
GOLDEN_LOG_SHA256 = {
    ("le15", "fox"): "28ae590ff09a575bc8617b70cb3a312eee14b206951947d056da598f5c0d25b6",
    ("le15", "sched"): "017ec98e7e6bc1c049b55dd661aacc40ac34f36c2c14854d210a32be53eea958",
    ("le15", "base"): "e06b34a01c5626e696665c9af89f3f6870e9a468c3e1183310e0eb5f48e15232",
    ("chain6", "fox"): "d7d4cacde81f1eb2b5360caa7c01c14412906d01d50fa799fd40efedf3212603",
    ("chain6", "sched"): "d459112891a50183d866fc6536ed8e493bb279730fad5ed6e96006369b808e3d",
    ("chain6", "base"): "7dc26afcfea76e1fe971d288bf73f50d8b81172b6a45c8b926253584de59bb6b",
    ("magic_str8", "fox"): "b9bdfe84e179aeadd484a4767f362b6ee30bc422c8ff8646ef570502e16d3251",
    ("magic_str8", "sched"): "3f85b3e3f5f338cae01939671d80d116e56b0377a4a596aac4c90be98e1b2066",
    ("magic_str8", "base"): "7591416d2f5bfa219eb0d62bdd33349a8f2bff884d35a2dbfd63fa3600a2d206",
}


# sha256 over every corpus entry's (exec_index, data, sorted new_edges), then
# every finding's (exec_index, data), for the same runs; recorded with the
# plain randrange/randint/choice formulation of havoc_mutate.
GOLDEN_OUTPUT_SHA256 = {
    ("le15", "fox"): "84a025c4d40424af8a1dae54984d692bd58468726ea739e33b963c7713f92952",
    ("le15", "sched"): "60529e83f94be21abac86a89c4c10f9df11fe63b385badefc2727dd746132bee",
    ("le15", "base"): "a8a1b2684e4a50f4818e3d16a0e5703461335bc61d9d0b6518ab06eb90090af1",
    ("chain6", "fox"): "bc9965458f8fb3a99a2773bc003c8d7d9c06684d0a7bf6eb8e00bfcf82ee64a0",
    ("chain6", "sched"): "93049d286a7c88a9697199c5507f465c6f1c464d0ba3fb9d43bff5c75ab775a9",
    ("chain6", "base"): "0560ffe1a71b52b2cd25ed0575d0ee83ebdbd73906c1e20791c1f756ece93812",
    ("magic_str8", "fox"): "08eaa4257dabca7d5866b3a11292307047d472800f98c0ee4972e7e0b934f2b1",
    ("magic_str8", "sched"): "a95c1c6398574451e2b86e37aa51e962cc4476cf94c070bc888ff71d23b36abf",
    ("magic_str8", "base"): "a95c1c6398574451e2b86e37aa51e962cc4476cf94c070bc888ff71d23b36abf",
}


def golden_campaign(name, mode):
    program = builtin_targets.load(name)
    return Campaign(program, [zero_seed(program)], Mode(mode), Budget(max_execs=3_000),
                    rng_seed=0)


@pytest.mark.parametrize("name,mode", sorted(GOLDEN_LOG_SHA256))
def test_golden_log_digest(name, mode):
    log = golden_campaign(name, mode).run()
    digest = hashlib.sha256(log.to_jsonl().encode("utf-8")).hexdigest()
    assert digest == GOLDEN_LOG_SHA256[(name, mode)]


@pytest.mark.parametrize("name,mode", sorted(GOLDEN_OUTPUT_SHA256))
def test_golden_output_digest(name, mode):
    campaign = golden_campaign(name, mode)
    campaign.run()
    h = hashlib.sha256()
    for entry in campaign.corpus.entries:
        h.update(repr((entry.exec_index, entry.data, sorted(entry.new_edges))).encode("utf-8"))
    for exec_index, data in campaign.findings:
        h.update(repr((exec_index, data)).encode("utf-8"))
    assert h.hexdigest() == GOLDEN_OUTPUT_SHA256[(name, mode)]
