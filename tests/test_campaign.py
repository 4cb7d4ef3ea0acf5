import hashlib
import json
import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_executor
from frontierfuzz import builtin_targets
from frontierfuzz.campaign import _BASE_HAVOC_STACK, Budget, Campaign, Mode
from frontierfuzz.coverage import recompute_frontier
from frontierfuzz.distance import observation_distance, row_function
from frontierfuzz.mutation import Mutator, MutatorConfig, havoc_mutate
from frontierfuzz.oracle import ConvexityStats, convexity_probe
from frontierfuzz.target import Harness, Relation, program_from_dict
from test_target import _documents


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
            trace = harness.execute(stats.best_input)
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

    def test_sched_batches_keep_active_sites_on_the_frontier(self):
        # Refreshes point the switch at the whole frontier; inside a havoc
        # batch it only narrows, and after every exec no active site is off
        # the frontier.
        narrowings = []
        for name in builtin_targets.names():
            program = builtin_targets.load(name)
            campaign = Campaign(program, [zero_seed(program)], Mode.SCHED,
                                Budget(max_execs=6_000), MutatorConfig(sample_size=16),
                                rng_seed=3)
            harness, coverage, executor = campaign.harness, campaign.coverage, campaign._executor
            in_batch = []
            refreshes = []

            def check():
                assert harness.active_sites <= coverage.frontier

            original_set = harness.set_active_sites

            def spy_set(sites):
                sites = frozenset(sites)
                if in_batch:
                    assert sites <= harness.active_sites
                    if sites != harness.active_sites:
                        narrowings.append(sites)
                else:
                    refreshes.append((sites, recompute_frontier(coverage)))
                return original_set(sites)

            original_run = executor.run

            def spy_run(data, *args, **kwargs):
                if in_batch:
                    check()
                return original_run(data, *args, **kwargs)

            original_batch = campaign._havoc_batch

            def spy_batch(seed):
                in_batch.append(seed)
                try:
                    original_batch(seed)
                finally:
                    in_batch.pop()
                check()

            harness.set_active_sites = spy_set
            executor.run = spy_run
            campaign._havoc_batch = spy_batch
            campaign.run()
            assert refreshes
            for requested, pure in refreshes:
                assert requested == pure
        assert narrowings


def _reference_havoc_batch(self, seed: bytes) -> None:
    """``Campaign._havoc_batch`` before it switched off sites that leave the
    frontier mid-batch: every site stays active until the next refresh."""
    cfg = self.config
    rng = self.rng
    executor = self._executor
    max_len = self.program.max_input_len
    for _ in range(cfg.sample_size):
        data = havoc_mutate(
            seed, cfg, rng,
            stack_max=_BASE_HAVOC_STACK, allow_resize=True, max_len=max_len,
        )
        executor.run(data)


def _sched_outputs(program, havoc_batch, max_execs, sample_size, rng_seed):
    campaign = Campaign(program, [zero_seed(program)], Mode.SCHED, Budget(max_execs=max_execs),
                        MutatorConfig(sample_size=sample_size), rng_seed=rng_seed)
    campaign._havoc_batch = types.MethodType(havoc_batch, campaign)
    log = campaign.run()
    corpus = [(e.exec_index, e.data, e.new_edges) for e in campaign.corpus.entries]
    stats = {site: (s.best_input, s.pt, s.tt)
             for site, s in campaign.scheduler.stats.items()}
    return log.to_jsonl(), corpus, list(campaign.findings), stats


class TestHavocBatchAgainstReference:
    """Switching sites off mid-batch drops only observations nobody reads:
    logs, corpus, findings and per-site scheduler state are unchanged."""

    @pytest.mark.parametrize("name", builtin_targets.names())
    def test_builtin_targets(self, name):
        program = builtin_targets.load(name)
        for sample_size in (16, 256):
            args = (6_000, sample_size, 3)
            assert _sched_outputs(program, Campaign._havoc_batch, *args) == \
                _sched_outputs(program, _reference_havoc_batch, *args)

    @settings(max_examples=60, deadline=None)
    @given(_documents(), st.integers(0, 3))
    def test_generated_programs(self, doc, rng_seed):
        program = program_from_dict(doc)
        assert _sched_outputs(program, Campaign._havoc_batch, 800, 8, rng_seed) == \
            _sched_outputs(program, _reference_havoc_batch, 800, 8, rng_seed)


def _assert_run_end_invariants(program, campaign):
    """The state a finished campaign leaves behind is consistent with
    itself and with fresh replays of its corpus and findings."""
    coverage = campaign.coverage
    assert frozenset(coverage.frontier) == recompute_frontier(coverage)
    for stats in campaign.scheduler.stats.values():
        assert 1 <= stats.pt <= stats.tt
    harness = Harness(program, synthetic_time=True)
    covered = set()
    for entry in campaign.corpus.entries:
        assert entry.new_edges <= set(harness.execute(entry.data).edges)
        covered |= entry.new_edges
    assert covered == coverage.edge_hits
    for _, data in campaign.findings:
        assert harness.execute(data).bug_hits


class TestInvariantsOnGeneratedPrograms:
    """Short campaigns in every mode on generated programs, where fox runs
    the operand, hot-byte and byte-space solvers on guards of any kind."""

    @settings(max_examples=60, deadline=None)
    @given(_documents(), st.data())
    def test_run_end_invariants_and_rerun(self, doc, data):
        program = program_from_dict(doc)
        seed = data.draw(st.binary(min_size=1, max_size=program.max_input_len))
        rng_seed = data.draw(st.integers(0, 3))
        for mode in Mode:
            logs = []
            for _ in range(2):
                campaign = Campaign(program, [seed], mode, Budget(max_execs=600),
                                    MutatorConfig(sample_size=8), rng_seed=rng_seed)
                logs.append(campaign.run().to_jsonl())
            _assert_run_end_invariants(program, campaign)
            assert logs[0] == logs[1]


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
        prior_min = min(observation_distance(o) for o in pre_flip)
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
    # Fox on the big-endian operand solver, the xor Newton path and a mixed
    # tree.  The first two finish in one stage, so their logs match le15's.
    ("magic32_be", "fox"): "28ae590ff09a575bc8617b70cb3a312eee14b206951947d056da598f5c0d25b6",
    ("xor_guard", "fox"): "28ae590ff09a575bc8617b70cb3a312eee14b206951947d056da598f5c0d25b6",
    ("mixed_tree", "fox"): "7d52264ec50d5029e7daa5c1acd8684b82e33ea208961cdeb1ebd16d092da35d",
    # Sched on a tree where havoc batches switch off sites mid-batch.
    ("mixed_tree", "sched"): "f8a0a8778f337ea6466b311aa20b240293a463245114aa734446e492619c1266",
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
    ("magic32_be", "fox"): "3888de09dff2699ecadeb2fe0b12a67f1ed123d902eb029e8069b1453a2b7373",
    ("xor_guard", "fox"): "9bd09fae0c584d4b5dfe044fd37e1d914a775861fbb8679ccd02053e43309e56",
    ("mixed_tree", "fox"): "b5ccbc35161f510dddf96a27040aae4beb0294e7b3fca9db2f0d87f1a3f3ea8c",
    ("mixed_tree", "sched"): "17bdf2273c5b2f7182a201835a77a6ab8084cd14717c33f1a2ccea531954dcb0",
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
