"""The online control loop: select a seed, mutate, execute, absorb feedback.

Two objects split the work:

* ``_Executor`` owns the per-exec state: the harness, the coverage map and
  frontier, the per-branch clocks (``SchedulerState``), the corpus, the
  findings, and the flip, exec and time counters.  Every executed input,
  whether from the seed phase, a havoc batch, local search or a root step,
  flows through its one ``run_batch`` loop, which hands back each input it
  ran with its observation map when asked.
* ``Campaign`` owns the control loop and the log: the mode, the budget, the
  rng, the mutator, the round-robin and calibration cursors into the corpus,
  and the append-only campaign log.  Its ``coverage``, ``corpus``,
  ``findings``, ``harness`` and ``scheduler`` attributes are the executor's
  objects.

Each exec's observation map (site -> distance order key) goes to the
scheduler in one ``record_execution`` call, which folds in the frontier
sites' minima and clocks.  A stage is one scheduling decision plus its batch
of executions; the log records the cumulative state after every stage.  A
stage switches on the whole frontier, and the executor switches off each site
that flips off it (base has none on).  The campaign hands the executor its
budget after the seed phase, which runs every seed and replay; from then on
the run ends at the exec that covers the last edge or runs past the budget.
A plain havoc batch is ``sample_size`` mutants of one seed, each from a stack
of up to 16 havoc operators that may resize it within ``max_input_len``.

Modes:

* ``fox``   - frontier-branch scheduling plus the distance-guided mutator.
* ``sched`` - frontier-branch scheduling with plain havoc batches (no
  root-finding step).
* ``base``  - round-robin corpus scheduling with plain havoc batches, the
  conventional-fuzzer baseline.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .coverage import CoverageMap
from .mutation import _BATCH_STACK, Mutator, havoc_mutate
from .scheduling import SchedulerState
from .target import GuardProgram, Harness

__all__ = ["Mode", "Budget", "CorpusEntry", "Campaign"]


class Mode(Enum):
    FOX = "fox"
    SCHED = "sched"
    BASE = "base"


@dataclass(frozen=True)
class Budget:
    """Execution/time budget: int bounds, at least one set, none negative.
    ``exec_cap`` and ``time_cap`` are the bounds, ``math.inf`` where absent."""

    max_execs: int | None = None
    max_time_ns: int | None = None
    exec_cap: int | float = field(init=False, repr=False, compare=False)
    time_cap: int | float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.max_execs is None and self.max_time_ns is None:
            raise ValueError("budget needs at least one finite bound")
        for name, cap in (("max_execs", "exec_cap"), ("max_time_ns", "time_cap")):
            value = getattr(self, name)
            if value is not None and (value.__class__ is not int or value < 0):
                raise ValueError(f"{name} must be an int >= 0, got {value!r}")
            object.__setattr__(self, cap, math.inf if value is None else value)


class LogRecord(NamedTuple):
    t_ns: int
    execs: int
    edges_covered: int
    frontier_size: int
    corpus_size: int
    flips: int
    mode: str
    stage: int
    scheduled_branch: int | None
    sched_logprob: float | None = None
    sched_sc: int | None = None
    fallback: bool = False


class CampaignLog:
    """Append-only stats stream; execs and coverage are monotone."""

    def __init__(self):
        self.records: list[LogRecord] = []

    def append(self, record: LogRecord) -> None:
        if self.records:
            last = self.records[-1]
            if record.execs < last.execs or record.edges_covered < last.edges_covered:
                raise ValueError("campaign log must be monotone")
        self.records.append(record)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(r._asdict()) + "\n" for r in self.records)  # keys in field order


@dataclass(frozen=True)
class CorpusEntry:
    data: bytes
    new_edges: frozenset[int]
    exec_index: int


class Corpus:
    """Coverage-increasing inputs in discovery order."""

    def __init__(self):
        self.entries: list[CorpusEntry] = []

    def add(self, data: bytes, new_edges, exec_index: int) -> None:
        self.entries.append(CorpusEntry(data, frozenset(new_edges), exec_index))

    def __len__(self) -> int:
        return len(self.entries)


class _RunEnded(Exception):
    """The budget ran out, or a campaign covered its last edge."""


class StepOutcome(NamedTuple):
    """Frontier branches one execution flipped, and its trace's observation map."""

    flips: int
    observations: dict[int, int | tuple[int, tuple[int, ...]]]


class _Executor:
    """Single bookkeeping path for every executed input; owns the per-exec
    state it updates.  While ``budget`` is None it runs every input it is
    given.  Once a campaign sets it, the executor also switches off each site
    a flip takes off the frontier, and ends the run at the exec past the
    budget or the one that covers the last edge."""

    def __init__(self, program: GuardProgram, synthetic_time: bool):
        self.budget: Budget | None = None
        self.harness = Harness(program, synthetic_time=synthetic_time)
        self.coverage = CoverageMap(program)
        self.scheduler = SchedulerState()
        self.corpus = Corpus()
        self.findings: list[tuple[int, bytes]] = []
        self._finding_inputs: set[bytes] = set()
        self.flips = 0
        self.execs = 0
        self.t_ns = 0

    def run(self, data: bytes) -> StepOutcome:
        """``run_batch`` on one input: its flips and observation map."""
        flips = self.flips
        observations = self.run_batch((data,), [])[0][1]
        return StepOutcome(self.flips - flips, observations)

    def run_batch(self, inputs, ran: list | None = None):
        """Execute ``inputs`` in order, append each ``(input, observation
        map)`` pair to ``ran`` if given, and return ``ran``.  Under a budget,
        the first exec past it and the exec that covers the last edge raise
        ``_RunEnded``; the counters hold the execs made either way."""
        b = self.budget
        exec_cap, time_cap = (math.inf,) * 2 if b is None else (b.exec_cap, b.time_cap)
        execute, switch_off = self.harness.execute, self.harness.switch_off
        edge_hits, frontier = self.coverage.edge_hits, self.coverage.frontier
        record = self.scheduler.record_execution
        finding_inputs = self._finding_inputs
        execs, t_ns, flips = self.execs, self.t_ns, self.flips
        keep = None if ran is None else ran.append
        try:
            for data in inputs:
                if execs >= exec_cap or t_ns >= time_cap:
                    raise _RunEnded
                trace = execute(data)
                edges, observations, exec_time, bug_hits = trace
                execs += 1
                t_ns += exec_time
                if bug_hits and data not in finding_inputs:
                    finding_inputs.add(data)
                    self.findings.append((execs, data))
                if not edge_hits.issuperset(edges):
                    first_cover = [e for e in edges if e not in edge_hits]
                    # A flip is a first-cover edge out of a node that was a
                    # frontier branch before this exec (an acyclic walk repeats
                    # no edge); only a flip takes a site off the frontier or
                    # covers the last edge.
                    flipped = [e >> 1 for e in first_cover if e >> 1 in frontier]
                    self.coverage.absorb_trace(trace)
                    self.corpus.add(data, first_cover, execs)
                    flips += len(flipped)
                    if flipped and b is not None:
                        switch_off(flipped)
                        if self.coverage.complete:
                            raise _RunEnded  # no frontier site is left to record it
                if observations:
                    record(data, observations, exec_time, frontier)
                if keep:
                    keep((data, observations))
        finally:
            self.execs, self.t_ns, self.flips = execs, t_ns, flips
        return ran


class Campaign:
    """One fuzzing campaign over a guard program.

    ``seeds`` is a collection of nonempty bytes-like inputs.  ``sample_size``
    (an int >= 2) goes to the mutator: it is the local-search samples per fox
    stage and the mutants per plain havoc batch.

    A campaign instance is single-use.  Parallel trials run fully disjoint
    Campaign instances.
    """

    def __init__(self, program: GuardProgram, seeds, mode: Mode, budget: Budget,
                 sample_size: int = 1024, rng_seed: int = 0,
                 synthetic_time: bool = True):
        seeds = list(seeds)
        for s in seeds:
            # A bare bytes or str argument fails here too: its items are
            # ints or strs.
            if not isinstance(s, (bytes, bytearray, memoryview)):
                raise ValueError(f"each seed must be bytes-like, got {type(s).__name__}")
        seeds = [bytes(s) for s in seeds]
        if not seeds:
            raise ValueError("at least one seed is required")
        for s in seeds:
            if not s:
                raise ValueError("seeds must be nonempty")
            if len(s) > program.max_input_len:
                raise ValueError(
                    f"seed of length {len(s)} exceeds max_input_len {program.max_input_len}"
                )
        self.program = program
        self.seeds = seeds
        self.mode = Mode(mode)
        self.rng = random.Random(rng_seed)
        self.mutator = Mutator(program, sample_size)
        self.log = CampaignLog()
        self.budget = budget
        self._executor = executor = _Executor(program, synthetic_time)
        self.harness = executor.harness
        self.coverage = executor.coverage
        self.scheduler = executor.scheduler
        self.corpus = executor.corpus
        self.findings = executor.findings
        self._rr_index = 0
        # Corpus entries before this index have replayed with their
        # frontier sites active.
        self._calibrated = 0
        self._ran = False

    # -- stage helpers -----------------------------------------------------

    def _refresh_active_sites(self) -> frozenset[int]:
        """Switch on the frontier sites found since the last refresh and
        replay the corpus entries added since then so fresh frontier branches
        get their baseline observations.  A replay covers nothing new, so it
        adds no entry.  The executor switched off each site that left the
        frontier, so the active set is now the frontier."""
        frontier = frozenset(self.coverage.frontier)
        self.harness.switch_on(frontier)
        start, self._calibrated = self._calibrated, len(self.corpus.entries)
        if start < self._calibrated:  # a corpus entry is pending
            self._executor.run_batch([entry.data for entry in self.corpus.entries[start:]])
        return frontier

    def _havoc_batch(self, seed: bytes) -> None:
        """One batch of plain havoc on ``seed``, each mutant made as it runs."""
        rng, max_len = self.rng, self.program.max_input_len
        self._executor.run_batch(havoc_mutate(seed, rng, _BATCH_STACK, max_len)
                                 for _ in range(self.mutator.sample_size))

    def _append_record(self, stage: int, frontier_size: int, scheduled, fallback: bool) -> None:
        executor = self._executor
        self.log.append(LogRecord(
            t_ns=executor.t_ns,
            execs=executor.execs,
            edges_covered=len(self.coverage.edge_hits),
            frontier_size=frontier_size,
            corpus_size=len(self.corpus),
            flips=executor.flips,
            mode=self.mode.value,
            stage=stage,
            scheduled_branch=None if scheduled is None else scheduled.branch,
            sched_logprob=None if scheduled is None else scheduled.logprob,
            sched_sc=None if scheduled is None else scheduled.sc,
            fallback=fallback,
        ))

    # -- main loop ----------------------------------------------------------

    def run(self) -> CampaignLog:
        if self._ran:
            raise RuntimeError("a Campaign instance is single-use")
        self._ran = True
        executor = self._executor

        # Seed phase, before the budget is in force: every seed executes
        # regardless of budget and coverage, then the adaptive switch comes
        # up and coverage-increasing seeds replay once to establish their
        # frontier observations.  No site is on while the seeds run, and the
        # replays cover nothing new, so no site is switched off here either.
        executor.run_batch(self.seeds)
        if self.mode is not Mode.BASE:
            self._refresh_active_sites()
        executor.budget = budget = self.budget
        self._append_record(0, len(self.coverage.frontier), scheduled=None, fallback=False)

        stage = 0
        while not self.coverage.complete:
            if executor.execs >= budget.exec_cap or executor.t_ns >= budget.time_cap:
                break
            stage += 1
            scheduled = None
            fallback = False
            # The stage logs this size: a refresh's replays cover nothing new.
            frontier_size = len(self.coverage.frontier)
            try:
                if self.mode is Mode.BASE:
                    self._havoc_batch(self._next_round_robin())
                else:
                    frontier = self._refresh_active_sites()
                    if not frontier:
                        fallback = True
                        self._havoc_batch(self._next_round_robin())
                    else:
                        scheduled = self.scheduler.select_next(frontier)
                        if self.mode is Mode.FOX:
                            self.mutator.mutate_stage(
                                scheduled.seed, frontier, executor, self.rng,
                            )
                        else:
                            self._havoc_batch(scheduled.seed)
            except _RunEnded:
                self._append_record(stage, frontier_size, scheduled, fallback)
                break
            self._append_record(stage, frontier_size, scheduled, fallback)
        return self.log

    def _next_round_robin(self) -> bytes:
        entry = self.corpus.entries[self._rr_index % len(self.corpus.entries)]
        self._rr_index += 1
        return entry.data
