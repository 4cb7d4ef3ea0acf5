import contextlib
import functools
import hashlib
import json
import math
import random
import statistics
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_executor
from frontierfuzz import builtin_targets
from frontierfuzz.campaign import (
    Budget, Campaign, CampaignLog, LogRecord, Mode, _Executor, _RunEnded,
)
from frontierfuzz.coverage import CoverageMap
from frontierfuzz.distance import observation_distance
from frontierfuzz.mutation import _BATCH_STACK, Mutator, havoc_mutate
from frontierfuzz.target import Harness, Relation, program_from_dict
from reference import _ROWS, guard_feedback, recompute_frontier
from test_target import _documents


def zero_seed(program):
    return bytes(program.max_input_len)


class TestBudget:
    def test_needs_one_bound(self):
        with pytest.raises(ValueError, match="bound"):
            Budget()

    def test_exec_bound(self):
        budget = Budget(max_execs=10)
        assert (budget.exec_cap, budget.time_cap) == (10, math.inf)

    def test_time_bound(self):
        budget = Budget(max_time_ns=100)
        assert (budget.exec_cap, budget.time_cap) == (math.inf, 100)

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
        assert 1 << 62 < budget.exec_cap


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

    @pytest.mark.parametrize("seeds", [b"\x03\x05", "ab", [4], [bytes([5]), "x"]])
    def test_non_bytes_like_seeds_rejected(self, seeds):
        # bytes(3) is three zero bytes: an int item, such as one of a bare
        # bytes argument's, must not run as an all-zero seed.
        program = builtin_targets.load("le15")
        with pytest.raises(ValueError, match="bytes-like"):
            Campaign(program, seeds, Mode.FOX, Budget(max_execs=10))

    def test_bytes_like_seeds_accepted(self):
        program = builtin_targets.load("le15")
        seeds = [bytes([5]), bytearray([6]), memoryview(b"\x07")]
        campaign = Campaign(program, seeds, Mode.FOX, Budget(max_execs=10))
        assert campaign.seeds == [b"\x05", b"\x06", b"\x07"]

    @pytest.mark.parametrize("sample_size", [3.0, 2.5, True, "8", 1])
    def test_bad_sample_size_rejected(self, sample_size):
        # Checked at construction: a float used to pass, then end the run
        # mid-stage with a TypeError from range().
        program = builtin_targets.load("le15")
        for mode in Mode:
            with pytest.raises(ValueError, match="sample_size must be an int >= 2"):
                Campaign(program, [bytes([5])], mode, Budget(max_execs=10),
                         sample_size=sample_size)

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
        # smaller bound.  No byte is above 255, so this guard's taken edge is
        # never covered in any mode (fox covers chain6 within 1,500 execs).
        program = program_from_dict({
            "max_input_len": 4, "entry": 0,
            "nodes": [{"id": 0, "kind": "int", "offset": 0, "width": 1, "endian": "le",
                       "signed": False, "relation": "gt", "constant": 255,
                       "taken": None, "nottaken": None}],
        })
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
        original = campaign.harness.switch_on
        campaign.harness.switch_on = lambda sites: (calls.append(set(sites)),
                                                    original(sites))[1]
        campaign.run()
        assert not calls
        assert not campaign.harness.active_sites
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
        # After every refresh the active set is the frontier, recomputed from
        # scratch: switch_on only widens it, and it never has to narrow.
        program = builtin_targets.load("chain6")
        campaign = Campaign(program, [zero_seed(program)], Mode.FOX,
                            Budget(max_execs=30_000), rng_seed=5)
        harness = campaign.harness
        calls = []
        original = harness.switch_on

        def spy(sites):
            before = set(harness.active_sites)
            original(sites)
            assert harness.active_sites == before | set(sites)
            calls.append((set(harness.active_sites), recompute_frontier(campaign.coverage)))

        harness.switch_on = spy
        campaign.run()
        assert calls
        for active, pure in calls:
            assert active == pure

    @pytest.mark.parametrize("mode", [Mode.FOX, Mode.SCHED])
    def test_guided_stages_keep_active_sites_on_the_frontier(self, mode):
        # A refresh only widens the active set, to the whole frontier;
        # between refreshes it only narrows, and after every exec no active
        # site is off the frontier.
        narrowings = []
        for name in builtin_targets.names():
            program = builtin_targets.load(name)
            campaign = Campaign(program, [zero_seed(program)], mode,
                                Budget(max_execs=6_000), sample_size=16,
                                rng_seed=3)
            harness, coverage = campaign.harness, campaign.coverage
            refreshes = []

            def check():
                assert harness.active_sites <= coverage.frontier

            original_switch_on = harness.switch_on

            def spy_switch_on(sites):
                before = set(harness.active_sites)
                original_switch_on(sites)
                assert harness.active_sites >= before
                refreshes.append((set(harness.active_sites), recompute_frontier(coverage)))

            original_switch_off = harness.switch_off

            def spy_switch_off(sites):
                before = set(harness.active_sites)
                original_switch_off(sites)
                assert harness.active_sites <= before
                if harness.active_sites != before:
                    narrowings.append(before - harness.active_sites)

            original_execute = harness.execute

            def spy_execute(data):
                check()
                return original_execute(data)

            harness.switch_on = spy_switch_on
            harness.switch_off = spy_switch_off
            harness.execute = spy_execute
            campaign.run()
            check()
            assert refreshes
            for active, pure in refreshes:
                assert active == pure
        assert narrowings


def _outputs(program, mode, max_execs, sample_size, rng_seed, narrow=True):
    """A campaign's log, corpus, findings and per-site scheduler state; with
    ``narrow=False``, every site stays active until the next refresh."""
    campaign = Campaign(program, [zero_seed(program)], mode, Budget(max_execs=max_execs),
                        sample_size=sample_size, rng_seed=rng_seed)
    if not narrow:
        campaign.harness.switch_off = lambda sites: None
    log = campaign.run()
    corpus = [(e.exec_index, e.data, e.new_edges) for e in campaign.corpus.entries]
    stats = {site: (s.best_input, s.pt, s.tt)
             for site, s in campaign.scheduler.stats.items()}
    return log.to_jsonl(), corpus, list(campaign.findings), stats


class TestHavocBatchAgainstReference:
    """Switching sites off as they flip drops only observations nobody reads:
    in sched and fox alike, logs, corpus, findings and per-site scheduler
    state are those of a run that keeps every site on until the next
    refresh."""

    @pytest.mark.parametrize("name", builtin_targets.names())
    def test_builtin_targets(self, name):
        program = builtin_targets.load(name)
        for sample_size in (16, 256):
            args = (program, Mode.SCHED, 6_000, sample_size, 3)
            assert _outputs(*args) == _outputs(*args, narrow=False)
        # At 1024, local search's stop rule reads the frontier too.
        for sample_size in (8, 64, 1024):
            for rng_seed in range(3):
                args = (program, Mode.FOX, 6_000, sample_size, rng_seed)
                assert _outputs(*args) == _outputs(*args, narrow=False)

    @settings(max_examples=60, deadline=None)
    @given(_documents(), st.integers(0, 3))
    def test_generated_programs(self, doc, rng_seed):
        program = program_from_dict(doc)
        for mode, sample_size in ((Mode.SCHED, 8), (Mode.FOX, 8), (Mode.FOX, 200)):
            args = (program, mode, 800, sample_size, rng_seed)
            assert _outputs(*args) == _outputs(*args, narrow=False)


def _executor_state(executor):
    return (executor.execs, executor.flips, executor.t_ns, executor.corpus.entries,
            executor.findings, executor.scheduler.stats, executor.harness.active_sites,
            executor.coverage.edge_hits, executor.coverage.frontier)


def _batch_and_single_runs(program, prefix, inputs, budget=None, active=None):
    """Two executors that run ``prefix`` with no budget, then take ``budget``
    (None keeps them without one) and switch on ``active`` (default: the
    frontier); then one runs ``inputs`` as a batch and the other one input at
    a time through ``run``.  Returns, per executor, the observation maps
    (None when the budget or full coverage stopped it) and its state."""
    results = []
    for batched in (True, False):
        executor = _Executor(program, True)
        executor.run_batch(prefix)
        executor.budget = budget
        executor.harness.switch_on(
            executor.coverage.frontier if active is None else active)
        try:
            if batched:
                ran = executor.run_batch(iter(inputs), [])
                assert [data for data, _ in ran] == inputs
                maps = [observations for _, observations in ran]
            else:
                maps = [executor.run(data).observations for data in inputs]
        except _RunEnded:
            maps = None
        results.append((maps, _executor_state(executor)))
    return results


class TestRunBatchAgainstSingleRuns:
    """A batch leaves the executor as running its inputs through ``run`` one
    at a time does."""

    @pytest.mark.parametrize("name", builtin_targets.names())
    def test_builtin_havoc_batches(self, name):
        program = builtin_targets.load(name)
        seed = zero_seed(program)
        rng = random.Random(7)
        inputs = [havoc_mutate(seed, rng, _BATCH_STACK, program.max_input_len)
                  for _ in range(300)]
        for budget in (None, Budget(max_execs=1 << 62)):
            got, want = _batch_and_single_runs(program, [seed], inputs, budget)
            assert got == want
            maps, state = got
            if maps is None:  # under a budget, the exec that covers the last edge ends it
                assert budget and len(state[7]) == program.total_edges
                assert state[3][-1].exec_index == state[0] < 1 + len(inputs)
            else:
                assert state[0] == 1 + len(inputs)

    @settings(max_examples=60, deadline=None)
    @given(_documents(), st.integers(0, 2**32), st.integers(1, 60), st.booleans())
    def test_generated_programs(self, doc, rng_seed, n, budgeted):
        program = program_from_dict(doc)
        seed = zero_seed(program)
        rng = random.Random(rng_seed)
        inputs = [havoc_mutate(seed, rng, _BATCH_STACK, program.max_input_len)
                  for _ in range(n)]
        got, want = _batch_and_single_runs(program, [], inputs,
                                           Budget(max_execs=1 << 62) if budgeted else None,
                                           active=program.node_ids)
        assert got == want

    @pytest.mark.parametrize("budget", [Budget(max_execs=5), Budget(max_time_ns=5)])
    def test_budget_that_runs_out_partway(self, budget):
        program = builtin_targets.load("chain6")
        inputs = [bytes([1, 2, 4, 8, 16, 32][:k]).ljust(6, b"\0") for k in range(7)]
        got, want = _batch_and_single_runs(program, [bytes(6)], inputs, budget=budget)
        assert got == want
        maps, state = got
        # The prefix ran before the budget; the batch made the 4 execs the
        # cap left.
        assert maps is None and state[0] == 5
        assert state[2] == 5  # synthetic time: one ns per exec
        assert state[3][-1].exec_index == 5  # corpus entries stop at the last exec made

    def test_exempt_replays_run_past_the_cap(self):
        # With no budget, as in the seed phase, every input runs: the
        # staircase covers the last edge with no _RunEnded, and each of the
        # six sites it flips stays switched on.
        program = builtin_targets.load("chain6")
        inputs = [bytes([1, 2, 4, 8, 16, 32][:k]).ljust(6, b"\0") for k in range(7)]
        got, want = _batch_and_single_runs(program, [], inputs, active=program.node_ids)
        assert got == want
        maps, state = got
        assert maps is not None and state[0] == len(inputs)
        assert len(state[7]) == program.total_edges and state[1] == 6
        assert state[6] == program.node_ids

    def test_sched_batch_with_a_flip_in_the_middle(self):
        # Every guard starts switched on.  The second input flips guard 0 and
        # the third guard 1; from the first flip on, only frontier sites stay on.
        program = builtin_targets.load("chain6")
        inputs = [bytes(6), bytes([1, 0, 0, 0, 0, 0]), bytes([1, 2, 0, 0, 0, 0]), bytes(6),
                  bytes([1, 2, 4, 0, 0, 0])]
        got, want = _batch_and_single_runs(program, [bytes(6)], inputs,
                                           Budget(max_execs=1 << 62),
                                           active=program.node_ids)
        assert got == want
        maps, state = got
        assert state[1] > 0 and state[6] < program.node_ids
        assert 0 in maps[0] and 0 not in maps[-1]


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
    the locator and the operand solver on guards of any kind, from seeds
    shorter than the guards' windows too."""

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
                                    sample_size=8, rng_seed=rng_seed)
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
        # The budget is in force from the seed record on.
        executor = campaign._executor
        assert executor.budget is campaign.budget
        # A branch gains stats when a corpus entry that reaches it replays
        # with the branch active, at the refresh after the entry appears.  A
        # refresh that the budget cuts short ends the run unscheduled.
        if executor.execs < executor.budget.exec_cap and executor.t_ns < executor.budget.time_cap:
            reached = set().union(*self.walked[:campaign._calibrated])
            assert frontier & reached <= set(stats)


def _checked_run(program, seed, mode, max_execs, sample_size, rng_seed):
    campaign = Campaign(program, [seed], mode, Budget(max_execs=max_execs),
                        sample_size=sample_size, rng_seed=rng_seed)
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


def _assert_run_end(campaign, max_execs):
    """A run from one seed ends at the exec that covers the last edge, or
    else at the budget, with the final record on that exec."""
    final = campaign.log.records[-1]
    if campaign.coverage.complete:
        assert final.execs == campaign.corpus.entries[-1].exec_index
        assert final.edges_covered == campaign.program.total_edges
    else:
        assert final.execs == max_execs  # synthetic time: the exec cap stops it


class TestEndOfRun:
    """A campaign pays for no exec after its last edge is covered."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("name", builtin_targets.SUITE)
    def test_builtin_targets(self, name, mode):
        program = builtin_targets.load(name)
        campaign = _checked_run(program, zero_seed(program), mode, 20_000, 16, rng_seed=1)
        _assert_run_end(campaign, 20_000)
        if mode is Mode.FOX:
            assert campaign.coverage.complete

    @settings(max_examples=30, deadline=None)
    @given(_documents(), st.data())
    def test_generated_programs(self, doc, data):
        program = program_from_dict(doc)
        seed = data.draw(st.binary(min_size=1, max_size=program.max_input_len))
        rng_seed = data.draw(st.integers(0, 3))
        for mode in Mode:
            _assert_run_end(_checked_run(program, seed, mode, 600, 8, rng_seed), 600)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_seeds_that_cover_everything_all_run(self, mode):
        # The budget takes effect after the seed phase: the third seed runs
        # after the first two covered both edges, and no stage follows the
        # seed record.
        program = builtin_targets.load("le15")
        seeds = [bytes([5]), bytes([20]), bytes([3])]
        campaign = Campaign(program, seeds, mode, Budget(max_execs=1), rng_seed=0)
        log = campaign.run()
        assert [r.stage for r in log.records] == [0]
        # Base runs the seeds once; a guided mode replays the two corpus
        # entries with the (empty) frontier switched on.
        assert log.records[0].execs == (3 if mode is Mode.BASE else 5)

    @pytest.mark.parametrize("rng_seed, witness, key", [
        (0, b"\x01", 15), (1, b"\x03", 13), (2, b"\x0c", 4), (3, b"\x00", 16),
    ])
    def test_bare_executor_local_search_is_unchanged(self, rng_seed, witness, key):
        # Each search flips the guard with a sample of its first chunk; an
        # executor with no budget keeps it switched on and runs every sample,
        # so its records are those it gave before campaigns settled flipped
        # sites.  The flip leaves no live site, so the search ends with that
        # chunk.
        program = builtin_targets.load("le15")
        executor = make_executor(program, frontier={0})
        records = Mutator(program, 64).local_search(bytes([5]), {0}, executor,
                                                    random.Random(rng_seed))
        assert executor.coverage.complete and executor.flips == 1
        assert executor.execs == 32
        assert executor.harness.active_sites == {0}
        assert list(records) == [0]
        assert (records[0].witness, records[0].witness_key, records[0].g) == (
            witness, key, {0: -1})

    @pytest.mark.parametrize("name, chunks_of_64", [
        ("magic32", 67), ("magic_str8", 69.5), ("chain6", 406.5),
    ])
    def test_stop_rules_read_every_32_samples(self, name, chunks_of_64):
        # Median execs to full coverage, fox, zero seed, rng seeds 0-9, sample
        # size 1024.  With the stop rules read only every 64 samples they were
        # ``chunks_of_64``; a stage whose one record is in hand by sample 32
        # stops there, so the medians sit well below those.
        program = builtin_targets.load(name)
        execs = []
        for rng_seed in range(10):
            campaign = Campaign(program, [zero_seed(program)], Mode.FOX,
                                Budget(max_execs=20_000), sample_size=1024,
                                rng_seed=rng_seed)
            execs.append(campaign.run().records[-1].execs)
            assert campaign.coverage.complete
        assert statistics.median(execs) <= 0.75 * chunks_of_64


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
        mutator = Mutator(program, 256)
        trajectory = []
        coverage = executor.coverage
        original = executor.harness.execute

        def tracing_execute(data):
            trace = original(data)
            key = trace.observations.get(0)
            if key is not None:
                # Read before the executor absorbs the trace: a flip is a
                # first-cover edge out of a frontier branch.
                flips = sum(1 for e in trace.edges
                            if e not in coverage.edge_hits and e >> 1 in coverage.frontier)
                trajectory.append((flips, key, data))
            return trace

        executor.harness.execute = tracing_execute
        mutator.mutate_stage(bytes([5]), {0}, executor, random.Random(0))
        flip_index = next(i for i, (flips, _, _) in enumerate(trajectory) if flips)
        pre_flip = [key for _, key, _ in trajectory[:flip_index]]
        assert pre_flip
        prior_min = min(observation_distance(key) for key in pre_flip)
        _, f = guard_feedback(program.nodes[0], trajectory[flip_index][2])
        old_row = _ROWS[True, Relation.LE]
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

    @pytest.mark.parametrize("field", ["execs", "edges_covered"])
    def test_append_rejects_a_count_below_the_last_record(self, field):
        log = CampaignLog()
        first = LogRecord(t_ns=5, execs=10, edges_covered=4, frontier_size=1, corpus_size=1,
                          flips=0, mode="fox", stage=1, scheduled_branch=None)
        log.append(first)
        log.append(first)  # an equal count is monotone
        with pytest.raises(ValueError, match="monotone"):
            log.append(first._replace(**{field: getattr(first, field) - 1}))
        assert log.records == [first, first]


# (log, output) sha256 pairs of golden campaigns: 3k execs, rng seed 0,
# all-zero seed.  The log digest is over CampaignLog.to_jsonl(); the output
# digest over every corpus entry's (exec_index, data, sorted new_edges), then
# every finding's (exec_index, data).  A change that alters the RNG draws, any
# scheduling decision or where a run ends changes these; such a change must
# update them and say so.
GOLDEN_SHA256 = {
    ("le15", "fox"): ("e3fa3aa7b5d2609095bac0c372b5c54fd82a28e3a80b0ec0113c5eb8b26167a6",
                      "e0f731e92d306ca5eb99070bad7ff47febeda87d445c1c067b341d65c6172dd2"),
    ("le15", "sched"): ("41d5c23f8642378bc3207a0c9f794482e7995df7540b25668ddddf1fa57740b1",
                        "8872267370063b3db373892893a6500ee428ae6faea409ba9c4d21d75c725fe8"),
    ("le15", "base"): ("ee694aa55d83bae2e986a61631a658c94884fade82f59bc0a4d92de3c7f32dbf",
                       "41167d4c00db1fee768507af32b0131f5703dce99eca118fd5f3999eee647c8c"),
    ("chain6", "fox"): ("884b532f98b803c559fd70da706a244ced312e48212d271a2ca8b1692f8940db",
                        "8a0072b52571a47c7d9a3293057ffc942027f58a0a32b67cc336d50a17709360"),
    ("chain6", "sched"): ("37448d5760df5d8302776d4f6ea00e5ad888eb0faa93d4ff91a52dcadbff6827",
                          "2d64be8bfe462b98f9b7b5ab876e2dba7a599d8c91a5ba3208bf703e0b5d9ec1"),
    ("chain6", "base"): ("4262775b518f6f7561e38d74536a4fafd6028438cea24eb51b7006f9ed86078b",
                         "5771e04e083257a615172769fb327acfb37d505a760d960716036bb482838517"),
    ("magic_str8", "fox"): ("98b8b8192c9c3d83f27768db81cf4ab4fb335bf6dcfb3c7a1ca0a0755d75244e",
                            "4a904046201f4d8d816fd43c308bbcb0282e6dd25e038e4f344891994ab5d914"),
    ("magic_str8", "sched"): ("91ce4333c69fce110885648db838582a5320ab58d1e39ad30ebe473fed7266d0",
                              "a95c1c6398574451e2b86e37aa51e962cc4476cf94c070bc888ff71d23b36abf"),
    ("magic_str8", "base"): ("7591416d2f5bfa219eb0d62bdd33349a8f2bff884d35a2dbfd63fa3600a2d206",
                             "a95c1c6398574451e2b86e37aa51e962cc4476cf94c070bc888ff71d23b36abf"),
    # Fox on a big-endian operand, an xor window and a mixed tree.
    # magic32_be and xor_guard each finish in one stage, at a root
    # candidate fired at a placement the locator found, so their logs are
    # magic_str8's.
    ("magic32_be", "fox"): ("98b8b8192c9c3d83f27768db81cf4ab4fb335bf6dcfb3c7a1ca0a0755d75244e",
                            "fcfd8417cf90fb49d7600c1f30ee7b001689cd745ea75fda60dcd1e0acd02163"),
    ("xor_guard", "fox"): ("98b8b8192c9c3d83f27768db81cf4ab4fb335bf6dcfb3c7a1ca0a0755d75244e",
                           "a2f891df1024b8e7691bb71bc5f5818111160e1c4db02c173fc6e27945b23903"),
    ("mixed_tree", "fox"): ("4eca71cdcffbd6630e909fdbdf9cd0c01ef4dc9876a9a7177fc57c9f4a1b3325",
                            "bc427e0d9133c1e855f420d04e94c6cdaacf0eefc41b70819bbf70a99ad1381c"),
    # Sched on a tree where havoc batches switch off sites mid-batch.
    ("mixed_tree", "sched"): ("ccd141908c63819e3924db350a7707283a88d283b2fe5686dd18efd5f658a4a4",
                              "485ad67bcd63e950522d8a67c4e87e885230e5f2661930d67fd9bf2661647567"),
}


@functools.cache
def golden_digests(name, mode):
    """The (log, output) digests of one golden campaign; each key runs once,
    and both tests read its result."""
    program = builtin_targets.load(name)
    campaign = Campaign(program, [zero_seed(program)], Mode(mode), Budget(max_execs=3_000),
                        rng_seed=0)
    log = campaign.run()
    h = hashlib.sha256()
    for entry in campaign.corpus.entries:
        h.update(repr((entry.exec_index, entry.data, sorted(entry.new_edges))).encode("utf-8"))
    for exec_index, data in campaign.findings:
        h.update(repr((exec_index, data)).encode("utf-8"))
    return hashlib.sha256(log.to_jsonl().encode("utf-8")).hexdigest(), h.hexdigest()


@pytest.mark.parametrize("name,mode", sorted(GOLDEN_SHA256))
def test_golden_log_digest(name, mode):
    assert golden_digests(name, mode)[0] == GOLDEN_SHA256[name, mode][0]


@pytest.mark.parametrize("name,mode", sorted(GOLDEN_SHA256))
def test_golden_output_digest(name, mode):
    assert golden_digests(name, mode)[1] == GOLDEN_SHA256[name, mode][1]
