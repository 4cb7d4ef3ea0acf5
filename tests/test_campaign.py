import contextlib
import hashlib
import json
import math
import random
import types
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_executor
from frontierfuzz import builtin_targets
from frontierfuzz.campaign import _BASE_HAVOC_STACK, Budget, Campaign, Mode
from frontierfuzz.coverage import CoverageMap, recompute_frontier
from frontierfuzz.distance import observation_distance, row_function
from frontierfuzz.mutation import Mutator, MutatorConfig, havoc_mutate
from frontierfuzz.target import Harness, Relation, guard_feedback, program_from_dict
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

    @pytest.mark.parametrize("value", [float("nan"), 2.5, 10.0, True, "10"])
    def test_non_int_bounds_rejected(self, value):
        # A NaN time bound is never reached: a campaign that cannot cover
        # its target would never stop.
        with pytest.raises(ValueError, match="max_execs"):
            Budget(max_execs=value)
        with pytest.raises(ValueError, match="max_time_ns"):
            Budget(max_time_ns=value)

    def test_absent_bound_is_an_infinite_cap(self):
        budget = Budget(max_time_ns=7)
        assert (budget.exec_cap, budget.time_cap) == (math.inf, 7)
        assert not budget.exhausted(1 << 62, 6)


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

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("max_execs, max_time_ns, stop", [
        (None, 1_500, 1_500), (1_500, 2_500, 1_500), (2_500, 1_500, 1_500),
    ])
    def test_time_budget_stops_the_run(self, mode, max_execs, max_time_ns, stop):
        # Synthetic time charges 1 ns per exec, and the budget is tested
        # before each one, so a run that cannot finish ends exactly at the
        # smaller bound.
        program = builtin_targets.load("chain6")
        log = Campaign(program, [zero_seed(program)], mode,
                       Budget(max_execs=max_execs, max_time_ns=max_time_ns), rng_seed=0).run()
        final = log.records[-1]
        assert final.edges_covered < program.total_edges
        assert final.execs == final.t_ns == stop

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


class StageInvariants:
    """Checks a campaign's state after every stage record.

    It wraps ``Campaign._append_record`` from the tests, so the engine keeps
    no hook.  Each corpus entry and finding is replayed once, on the first
    record after it appears.
    """

    def __init__(self, program):
        self.harness = Harness(program, synthetic_time=True)
        self.walked = []  # the nodes each corpus entry's replay walks through
        self.findings_checked = 0
        self.records = 0

    @contextlib.contextmanager
    def watching(self):
        original = Campaign._append_record

        def append_record(campaign, *args, **kwargs):
            original(campaign, *args, **kwargs)
            self.check(campaign)

        with mock.patch.object(Campaign, "_append_record", append_record):
            yield self

    def check(self, campaign):
        self.records += 1
        coverage = campaign.coverage
        frontier = frozenset(coverage.frontier)
        assert frontier == recompute_frontier(coverage)

        records = campaign.log.records
        assert len(records) == self.records
        assert records[-1].stage == len(records) - 1
        if len(records) >= 2:
            before, after = records[-2:]
            for field in ("t_ns", "execs", "edges_covered", "corpus_size", "flips"):
                assert getattr(before, field) <= getattr(after, field), field

        entries = campaign.corpus.entries
        for entry in entries[len(self.walked):]:
            edges = set(self.harness.execute(entry.data).edges)
            assert entry.new_edges <= edges
            self.walked.append({edge >> 1 for edge in edges})
        assert set().union(*(entry.new_edges for entry in entries)) == coverage.edge_hits
        for _, data in campaign.findings[self.findings_checked:]:
            assert self.harness.execute(data).bug_hits
        self.findings_checked = len(campaign.findings)

        stats = campaign.scheduler.stats
        for branch_stats in stats.values():
            assert 1 <= branch_stats.pt <= branch_stats.tt
        # A branch gains stats when a corpus entry that reaches it replays
        # with the branch active, at the refresh after the entry appears.  A
        # refresh that the budget cuts short ends the run unscheduled.
        executor = campaign._executor
        if not executor.budget.exhausted(executor.execs, executor.t_ns):
            reached = set().union(*self.walked[:campaign._calibrated])
            assert frontier & reached <= set(stats)


def _checked_run(program, seed, mode, max_execs, sample_size, rng_seed):
    campaign = Campaign(program, [seed], mode, Budget(max_execs=max_execs),
                        MutatorConfig(sample_size=sample_size), rng_seed=rng_seed)
    with StageInvariants(program).watching() as checker:
        log = campaign.run()
    assert checker.records == len(log.records) >= 1
    return campaign


class TestInvariantsAfterEveryStage:
    """Every stage record leaves the frontier, the branch stats, the log,
    the corpus and the findings consistent, not only the run's end."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("name", builtin_targets.SUITE)
    def test_builtin_targets(self, name, mode):
        program = builtin_targets.load(name)
        _checked_run(program, zero_seed(program), mode, 3_000, 16, rng_seed=1)

    @settings(max_examples=20, deadline=None)
    @given(_documents(), st.data())
    def test_generated_programs(self, doc, data):
        program = program_from_dict(doc)
        seed = data.draw(st.binary(min_size=1, max_size=program.max_input_len))
        rng_seed = data.draw(st.integers(0, 3))
        for mode in Mode:
            _checked_run(program, seed, mode, 400, 8, rng_seed)

    def test_checker_catches_a_stale_frontier(self, monkeypatch):
        # The checker bites: a frontier that keeps a retired branch fails the
        # first record after the retirement.
        program = builtin_targets.load("le15")
        real_absorb = CoverageMap.absorb_trace

        def absorb_keeping_node_0(coverage, trace):
            real_absorb(coverage, trace)
            coverage.frontier.add(0)

        monkeypatch.setattr(CoverageMap, "absorb_trace", absorb_keeping_node_0)
        with pytest.raises(AssertionError):
            _checked_run(program, zero_seed(program), Mode.BASE, 3_000, 16, rng_seed=0)


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
            key = out.observations.get(0)
            if key is not None:
                trajectory.append((out.flips, key, data))
            return out

        executor.run = tracing_run
        mutator.mutate_stage(bytes([5]), {0}, executor, random.Random(0))
        flip_index = next(i for i, (flips, _, _) in enumerate(trajectory) if flips)
        pre_flip = [key for _, key, _ in trajectory[:flip_index]]
        assert pre_flip
        prior_min = min(observation_distance(key) for key in pre_flip)
        _, f = guard_feedback(program.nodes[0], trajectory[flip_index][2])
        old_row = row_function(True, Relation.LE)
        assert old_row(f) < prior_min


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
    ("chain6", "fox"): "3fc94d5d6a774dacfa6719d671a4563adead65168378f9d4775a16cbece0c38e",
    ("chain6", "sched"): "37448d5760df5d8302776d4f6ea00e5ad888eb0faa93d4ff91a52dcadbff6827",
    ("chain6", "base"): "4262775b518f6f7561e38d74536a4fafd6028438cea24eb51b7006f9ed86078b",
    ("magic_str8", "fox"): "b9bdfe84e179aeadd484a4767f362b6ee30bc422c8ff8646ef570502e16d3251",
    ("magic_str8", "sched"): "91ce4333c69fce110885648db838582a5320ab58d1e39ad30ebe473fed7266d0",
    ("magic_str8", "base"): "7591416d2f5bfa219eb0d62bdd33349a8f2bff884d35a2dbfd63fa3600a2d206",
    # Fox on the big-endian operand solver, the xor Newton path and a mixed
    # tree.  The first two finish in one stage, so their logs match le15's.
    ("magic32_be", "fox"): "28ae590ff09a575bc8617b70cb3a312eee14b206951947d056da598f5c0d25b6",
    ("xor_guard", "fox"): "28ae590ff09a575bc8617b70cb3a312eee14b206951947d056da598f5c0d25b6",
    ("mixed_tree", "fox"): "af98110a568ccff03d3790d2770039b6143ebfc1e23048d9cfae60d8f59a624b",
    # Sched on a tree where havoc batches switch off sites mid-batch.
    ("mixed_tree", "sched"): "ccd141908c63819e3924db350a7707283a88d283b2fe5686dd18efd5f658a4a4",
}


# sha256 over every corpus entry's (exec_index, data, sorted new_edges), then
# every finding's (exec_index, data), for the same runs; recorded under
# havoc_mutate's 30-bit draw contract (one draw per operator).
GOLDEN_OUTPUT_SHA256 = {
    ("le15", "fox"): "e0f731e92d306ca5eb99070bad7ff47febeda87d445c1c067b341d65c6172dd2",
    ("le15", "sched"): "8872267370063b3db373892893a6500ee428ae6faea409ba9c4d21d75c725fe8",
    ("le15", "base"): "41167d4c00db1fee768507af32b0131f5703dce99eca118fd5f3999eee647c8c",
    ("chain6", "fox"): "99882344788a8d866d639c490f08d04afc96c281dda044dcbe55513531037e32",
    ("chain6", "sched"): "2d64be8bfe462b98f9b7b5ab876e2dba7a599d8c91a5ba3208bf703e0b5d9ec1",
    ("chain6", "base"): "5771e04e083257a615172769fb327acfb37d505a760d960716036bb482838517",
    ("magic_str8", "fox"): "c0b74880a8e44d176517721b10351e5d8a7169fcdc7cb52f4acec1abecea182c",
    ("magic_str8", "sched"): "a95c1c6398574451e2b86e37aa51e962cc4476cf94c070bc888ff71d23b36abf",
    ("magic_str8", "base"): "a95c1c6398574451e2b86e37aa51e962cc4476cf94c070bc888ff71d23b36abf",
    ("magic32_be", "fox"): "538ce2d4f37952d70d91d2a2c6a886fb433107e299917a7a925911a541054d16",
    ("xor_guard", "fox"): "eee7eec01645cea798eff5d60571c7a30c0d78866c9b38995cbf2b2de59dc95a",
    ("mixed_tree", "fox"): "04be7c91589310263d5e4b8a7d22943a1e1e6c18ae007baee3556f68beadffab",
    ("mixed_tree", "sched"): "485ad67bcd63e950522d8a67c4e87e885230e5f2661930d67fd9bf2661647567",
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
