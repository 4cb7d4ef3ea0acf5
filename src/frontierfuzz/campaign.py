"""The online control loop: select a seed, mutate, execute, absorb feedback.

Two objects split the work:

* ``_Executor`` owns the per-exec state: the harness, the coverage map and
  frontier, the per-branch clocks (``SchedulerState``), the corpus, the
  findings, and the flip, exec and time counters.  Every executed input,
  whether from the seed phase, a havoc batch, local search, a root step or a
  hot-byte probe, flows through its one ``run`` path.
* ``Campaign`` owns the control loop and the log: the mode, the rng, the
  mutator, the round-robin and calibration cursors into the corpus, and the
  append-only campaign log.  Its ``coverage``, ``corpus``, ``findings``,
  ``harness`` and ``scheduler`` attributes are the executor's objects.

Each exec's observation map (site -> distance order key) goes to the
scheduler in one ``record_execution`` call, which folds in the frontier
sites' minima and clocks.  A stage is one scheduling decision plus its batch
of executions; the log records the cumulative state after every stage.  A
stage switches on the whole frontier; a havoc batch then switches off each
site that leaves it, but a fox stage does not, since local search reads
every stage-frontier site.

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
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import NamedTuple

from .coverage import CoverageMap
from .mutation import Mutator, MutatorConfig, havoc_mutate
from .scheduling import SchedulerState
from .target import GuardProgram, Harness

__all__ = ["Mode", "Budget", "CorpusEntry", "Campaign"]

# Plain havoc (baseline mutator) uses a deeper stack than the locality-bound
# local-search havoc.
_BASE_HAVOC_STACK = 16


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

    def exhausted(self, execs: int, t_ns: int) -> bool:
        return execs >= self.exec_cap or t_ns >= self.time_cap


@dataclass(frozen=True)
class LogRecord:
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

    def to_json(self) -> str:
        return json.dumps(asdict(self))  # keys in field order


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
        return "".join(r.to_json() + "\n" for r in self.records)


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


class _BudgetExceeded(Exception):
    pass


class StepOutcome(NamedTuple):
    """Frontier branches one execution flipped, and its trace's observation map."""

    flips: int
    observations: dict[int, int | tuple[int, tuple[int, ...]]]


class _Executor:
    """Single bookkeeping path for every executed input; owns the per-exec
    state it updates."""

    def __init__(self, program: GuardProgram, budget: Budget, synthetic_time: bool):
        self.budget = budget
        self.harness = Harness(program, synthetic_time=synthetic_time)
        self.coverage = CoverageMap(program)
        self.scheduler = SchedulerState()
        self.corpus = Corpus()
        self.findings: list[tuple[int, bytes]] = []
        self._finding_inputs: set[bytes] = set()
        self.flips = 0
        self.execs = 0
        self.t_ns = 0

    def run(self, data: bytes, exempt_budget: bool = False,
            new=tuple.__new__, cls=StepOutcome) -> StepOutcome:
        budget = self.budget
        if not exempt_budget and (self.execs >= budget.exec_cap or self.t_ns >= budget.time_cap):
            raise _BudgetExceeded
        trace = self.harness.execute(data)
        edges, observations, exec_time, bug_hits = trace
        self.execs += 1
        self.t_ns += exec_time
        cov = self.coverage
        flips = 0
        if not cov.edge_hits.issuperset(edges):
            first_cover = [e for e in edges if e not in cov.edge_hits]
            # A flip is a first-cover edge out of a node that was a frontier
            # branch before this exec; an acyclic walk repeats no edge.
            flips = sum(1 for e in first_cover if e >> 1 in cov.frontier)
            self.flips += flips
            cov.absorb_trace(trace)
            self.corpus.add(data, first_cover, self.execs)
        if bug_hits and data not in self._finding_inputs:
            self._finding_inputs.add(data)
            self.findings.append((self.execs, data))
        if observations:
            self.scheduler.record_execution(data, observations, exec_time, cov.frontier)
        return new(cls, (flips, observations))


class Campaign:
    """One fuzzing campaign over a guard program.

    A campaign instance is single-use.  Parallel trials run fully disjoint
    Campaign instances.
    """

    def __init__(self, program: GuardProgram, seeds, mode: Mode, budget: Budget,
                 config: MutatorConfig | None = None, rng_seed: int = 0,
                 synthetic_time: bool = True):
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
        self.config = config or MutatorConfig()
        self.rng = random.Random(rng_seed)
        self.mutator = Mutator(self.config, program)
        self.log = CampaignLog()
        self._executor = executor = _Executor(program, budget, synthetic_time)
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

    def _refresh_active_sites(self, exempt_budget: bool = False) -> frozenset[int]:
        """Point the adaptive switch at the current frontier and replay the
        corpus entries added since the last refresh so fresh frontier
        branches get their baseline observations.  A replay covers nothing
        new, so it adds no entry."""
        frontier = frozenset(self.coverage.frontier)
        self.harness.set_active_sites(frontier)
        pending = self.corpus.entries[self._calibrated:]
        self._calibrated = len(self.corpus.entries)
        for entry in pending:
            self._executor.run(entry.data, exempt_budget)
        return frontier

    def _havoc_batch(self, seed: bytes) -> None:
        """One batch of plain havoc on ``seed``.  Sites that leave the frontier
        are switched off after the exec that flips them (no other exec can);
        only sched has active sites here, base and the fox fallback have none."""
        cfg = self.config
        rng = self.rng
        executor = self._executor
        harness = self.harness
        frontier = self.coverage.frontier
        max_len = self.program.max_input_len
        for _ in range(cfg.sample_size):
            data = havoc_mutate(
                seed, cfg, rng,
                stack_max=_BASE_HAVOC_STACK, allow_resize=True, max_len=max_len,
            )
            if executor.run(data).flips and harness.active_sites:
                harness.set_active_sites(harness.active_sites & frontier)

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

        # Seed phase: every seed executes regardless of budget, then the
        # adaptive switch comes up and coverage-increasing seeds replay once
        # to establish their frontier observations.
        for seed in self.seeds:
            executor.run(seed, exempt_budget=True)
        frontier_size = len(self.coverage.frontier)
        if self.mode is not Mode.BASE:
            self._refresh_active_sites(exempt_budget=True)
        self._append_record(stage=0, frontier_size=frontier_size, scheduled=None, fallback=False)

        stage = 0
        while True:
            if self.coverage.complete:
                break
            if executor.budget.exhausted(executor.execs, executor.t_ns):
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
            except _BudgetExceeded:
                self._append_record(stage, frontier_size, scheduled, fallback)
                break
            self._append_record(stage, frontier_size, scheduled, fallback)
        return self.log

    def _next_round_robin(self) -> bytes:
        entry = self.corpus.entries[self._rr_index % len(self.corpus.entries)]
        self._rr_index += 1
        return entry.data
