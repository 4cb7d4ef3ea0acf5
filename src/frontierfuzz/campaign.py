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

A stage is one scheduling decision plus its batch of executions; the log
records the cumulative state after every stage.

Modes:

* ``fox``   - frontier-branch scheduling plus the distance-guided mutator.
* ``sched`` - frontier-branch scheduling with plain havoc batches (no
  root-finding step).
* ``base``  - round-robin corpus scheduling with plain havoc batches, the
  conventional-fuzzer baseline.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum

from .coverage import CoverageMap
from .distance import observation_distance
from .mutation import Mutator, MutatorConfig, StageReport, havoc_mutate
from .scheduling import SchedulerState
from .target import BranchObservation, GuardProgram, Harness

__all__ = [
    "Mode",
    "Budget",
    "LogRecord",
    "CampaignLog",
    "Corpus",
    "CorpusEntry",
    "Campaign",
    "StepOutcome",
    "convexity_probe",
    "ConvexityStats",
]

# Plain havoc (baseline mutator) uses a deeper stack than the locality-bound
# local-search havoc.
_BASE_HAVOC_STACK = 16


class Mode(Enum):
    FOX = "fox"
    SCHED = "sched"
    BASE = "base"


@dataclass(frozen=True)
class Budget:
    """Execution/time budget; at least one bound must be finite, and none negative."""

    max_execs: int | None = None
    max_time_ns: int | None = None

    def __post_init__(self):
        if self.max_execs is None and self.max_time_ns is None:
            raise ValueError("budget needs at least one finite bound")
        for name in ("max_execs", "max_time_ns"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def exhausted(self, execs: int, t_ns: int) -> bool:
        if self.max_execs is not None and execs >= self.max_execs:
            return True
        if self.max_time_ns is not None and t_ns >= self.max_time_ns:
            return True
        return False


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
        return json.dumps({
            "t_ns": self.t_ns,
            "execs": self.execs,
            "edges_covered": self.edges_covered,
            "frontier_size": self.frontier_size,
            "corpus_size": self.corpus_size,
            "flips": self.flips,
            "mode": self.mode,
            "stage": self.stage,
            "scheduled_branch": self.scheduled_branch,
            "sched_logprob": self.sched_logprob,
            "sched_sc": self.sched_sc,
            "fallback": self.fallback,
        })


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

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


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


@dataclass(slots=True)
class StepOutcome:
    """What one execution did to the campaign state."""

    new_edges: int
    flips: int
    observations: dict[int, BranchObservation]


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

    def run(self, data: bytes, exempt_budget: bool = False) -> StepOutcome:
        if not exempt_budget and self.budget.exhausted(self.execs, self.t_ns):
            raise _BudgetExceeded
        trace = self.harness.execute(data)
        self.execs += 1
        self.t_ns += trace.exec_time
        cov = self.coverage
        flips = 0
        missing = cov.frontier_missing
        if missing:
            for edge in trace.edges:
                if edge in missing:
                    flips += 1
        first_cover = [e for e in trace.edges if e not in cov.edge_hits]
        new_edges = cov.absorb_trace(trace)
        self.flips += flips
        if new_edges:
            self.corpus.add(data, first_cover, self.execs)
        if trace.bug_hits and data not in self._finding_inputs:
            self._finding_inputs.add(data)
            self.findings.append((self.execs, data))
        observations: dict[int, BranchObservation] = {}
        if trace.observations:
            frontier = cov.frontier
            scheduler = self.scheduler
            for obs in trace.observations:
                observations[obs.site] = obs
                if obs.site in frontier:
                    scheduler.record_execution(
                        obs.site, data, observation_distance(obs),
                        trace.exec_time, frontier,
                    )
        return StepOutcome(new_edges, flips, observations)


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

    def _havoc_batch(self, seed: bytes, report: StageReport) -> None:
        cfg = self.config
        rng = self.rng
        executor = self._executor
        max_len = self.program.max_input_len
        for _ in range(cfg.sample_size):
            data = havoc_mutate(
                seed, cfg, rng,
                stack_max=_BASE_HAVOC_STACK, allow_resize=True, max_len=max_len,
            )
            outcome = executor.run(data)
            report.samples += 1
            report.flips += outcome.flips
            report.new_edges += outcome.new_edges

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
        if self.mode is Mode.BASE:
            frontier_size = len(self.coverage.frontier)
        else:
            frontier_size = len(self._refresh_active_sites(exempt_budget=True))
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
            report = StageReport()
            frontier = frozenset(self.coverage.frontier)
            try:
                if self.mode is Mode.BASE:
                    self._havoc_batch(self._next_round_robin(), report)
                else:
                    frontier = self._refresh_active_sites()
                    if not frontier:
                        fallback = True
                        self._havoc_batch(self._next_round_robin(), report)
                    else:
                        scheduled = self.scheduler.select_next(frontier)
                        if self.mode is Mode.FOX:
                            report = self.mutator.mutate_stage(
                                scheduled.seed, frontier, executor, self.rng,
                            )
                        else:
                            self._havoc_batch(scheduled.seed, report)
            except _BudgetExceeded:
                self._append_record(stage, len(frontier), scheduled, fallback)
                break
            self._append_record(stage, len(frontier), scheduled, fallback)
        return self.log

    def _next_round_robin(self) -> bytes:
        entry = self.corpus.entries[self._rr_index % len(self.corpus.entries)]
        self._rr_index += 1
        return entry.data


@dataclass
class ConvexityStats:
    """Per-site tallies of midpoint probes: passes / fails / non-probes."""

    passes: dict[int, int] = field(default_factory=dict)
    fails: dict[int, int] = field(default_factory=dict)
    non_probes: dict[int, int] = field(default_factory=dict)

    def ratio(self, site: int) -> float:
        p = self.passes.get(site, 0)
        f = self.fails.get(site, 0)
        return p / (p + f) if p + f else 0.0

    def _bump(self, bucket: dict[int, int], site: int) -> None:
        bucket[site] = bucket.get(site, 0) + 1


def convexity_probe(harness: Harness, site: int, x1: bytes, x2: bytes,
                    stats: ConvexityStats | None = None) -> bool | None:
    """Midpoint convexity check for one branch and one input pair.

    Executes both inputs and their byte-wise floor midpoint with the site
    active; passes when the midpoint's distance is at most the average of the
    endpoint distances (L1 for vectors, compared exactly).  Returns None when
    any of the three runs misses the site (a non-probe).
    """
    if len(x1) != len(x2):
        raise ValueError("convexity probe requires equal-length inputs")
    saved = harness.active_sites
    harness.set_active_sites({site})
    try:
        midpoint = bytes((a + b) // 2 for a, b in zip(x1, x2))
        values = []
        for data in (x1, x2, midpoint):
            obs = {o.site: o for o in harness.execute(data).observations}.get(site)
            if obs is None:
                if stats is not None:
                    stats._bump(stats.non_probes, site)
                return None
            d = observation_distance(obs)
            values.append(d.magnitude() if d.is_vector else d.scalar)
        d1, d2, dm = values[0], values[1], values[2]
        passed = 2 * dm <= d1 + d2
        if stats is not None:
            stats._bump(stats.passes if passed else stats.fails, site)
        return passed
    finally:
        harness.set_active_sites(saved)
