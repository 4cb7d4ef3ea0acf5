"""The frontierfuzz benchmark: fuzzing campaigns driven through the library.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a frontierfuzz checkout; the engine is imported from
its ``src`` directory.  Every campaign runs with ``synthetic_time=True`` and
a fixed exec budget, so for a given rng seed it does a fixed amount of work
and its wall time measures only the engine's speed.  ``--seed`` derives
every rng seed and every generated program.  ``--seconds`` sets how many
campaigns a run makes (sized to take about that long on a 2-vCPU machine);
the amount of work is a function of the arguments only, so coverage, bug and
log-digest figures repeat exactly for the same arguments.  Times are reported
in seconds of the reference machine: each campaign's time as measured is
divided by the machine's pace around it (see ``PaceProbe``).

Workloads (why each was chosen is recorded in ``BENCHMARK.json``):

* ``suite-havoc``: the eight builtin suite targets in modes base and sched.
* ``suite-fox``: the eight builtin suite targets in mode fox.
* ``gen-deep``: generated 512-node programs (see ``genprog``) in modes base
  and sched.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the same campaigns once untraced and once traced and prints the
per-layer metrics.  Every campaign's outputs are replayed through the
reference evaluator in ``refcheck``; a campaign that raises or fails that
check counts as failed.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "frontierfuzz" / "__init__.py").is_file():
    raise SystemExit(f"benchmark: {SRC / 'frontierfuzz'} not found; run from a frontierfuzz checkout")
sys.path.insert(0, str(SRC))

import frontierfuzz  # noqa: E402
from frontierfuzz import builtin_targets, campaign, coverage, mutation, scheduling, target  # noqa: E402

# The package re-exports the function distance.distance under the module's name.
distance = importlib.import_module("frontierfuzz.distance")

if Path(frontierfuzz.__file__).resolve().parent != SRC / "frontierfuzz":
    raise SystemExit(f"benchmark: imported frontierfuzz from {frontierfuzz.__file__}, not {SRC}")

import genprog  # noqa: E402
import refcheck  # noqa: E402
from spans import Tracer  # noqa: E402

SETUP_REPEATS = 5
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Workload:
    modes: dict[str, int]  # mode -> exec budget of each campaign in it
    units_per_s: float  # units of work per requested second (see campaign_specs)
    min_units: int


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    # A unit is the eight suite targets in both modes under one rng seed.  At
    # 10k execs sched reaches bug_chain's bug in most campaigns, base rarely.
    "suite-havoc": Workload({"base": 10_000, "sched": 10_000}, 0.3, 2),
    # Every fox campaign reaches full coverage within about 6k execs; the
    # budget only bounds a campaign that would not.
    "suite-fox": Workload({"fox": 100_000}, 1.4, 3),
    # A unit is one generated program in both modes.  A base exec costs about
    # a third of a sched exec here, so base gets three times the budget: the
    # two modes then take about as long per campaign, and the median
    # campaign time is not the gap between two separate clusters.  Fox is
    # left out: its first stage on these programs costs 3-5 s, so a run
    # could hold only a handful of programs and its figures would depend on
    # which ones.
    "gen-deep": Workload({"base": 6_000, "sched": 2_000}, 1.9, 6),
}


@dataclass(frozen=True)
class Spec:
    """One campaign of a workload."""

    label: str
    program: str | int  # a builtin target's name, or a genprog seed
    mode: str
    rng_seed: int
    budget: int

    def document(self) -> bytes:
        """The target document, made when the campaign runs so that a run
        holds one generated program at a time."""
        if isinstance(self.program, int):
            return genprog.document(self.program)
        return builtin_targets.document(self.program)


def campaign_specs(workload: str, seed: int, seconds: int) -> list[Spec]:
    """The campaigns of one run: ``units_per_s * seconds`` units (at least
    ``min_units``), each with an rng seed, and for gen-deep a program, drawn
    from the workload seed."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    units = max(wl.min_units, round(seconds * wl.units_per_s))
    specs = []
    for _ in range(units):
        if workload == "gen-deep":
            programs = [rng.getrandbits(32)]
        else:
            programs = list(builtin_targets.SUITE)
        rng_seed = rng.getrandbits(32)
        for program in programs:
            name = f"gen{program}" if isinstance(program, int) else program
            for mode, budget in wl.modes.items():
                specs.append(Spec(f"{name}/{mode}/{rng_seed}", program, mode, rng_seed,
                                  budget))
    return specs


def coverage_auc(records, total_edges: int, budget: int) -> float:
    """Area under edges covered over execs, as a share of total_edges *
    budget.  Coverage after the last record holds up to the budget."""
    area = 0
    prev_execs = prev_edges = 0
    for record in records:
        execs = min(record.execs, budget)
        area += prev_edges * (execs - prev_execs)
        prev_execs, prev_edges = execs, record.edges_covered
    area += prev_edges * (budget - prev_execs)
    return area / (total_edges * budget)


class PaceProbe:
    """Measures how fast the machine runs right now.

    On a shared host the machine's speed can drift by tens of percent within
    seconds, and CPU time drifts with wall time, so no clock of this process
    can tell the drift from the engine's own speed.  Calling the
    probe times a fixed job of the same kind as the engine's (the reference
    evaluator walking a generated program, code that no engine change
    touches) and returns the pace: the job's time over its time on the
    reference machine, so 1.25 means the machine runs 25% slower than the
    reference did.
    """

    # Typical best-of-three time of the job between campaigns on the
    # reference machine (2 vCPUs, Python 3.11.7).  It only sets the scale of
    # the reported times; changing it would break comparison with
    # baseline.json.
    REFERENCE_S = 0.00055

    def __init__(self):
        self._ref = refcheck.Reference(genprog.document(0))
        rng = random.Random(0)
        self._inputs = [bytes(rng.randrange(256) if rng.random() < 0.05 else 0
                              for _ in range(genprog.INPUT_LEN)) for _ in range(12)]

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for data in self._inputs:
                self._ref.run(data)
            best = min(best, time.perf_counter() - t0)
        return best / self.REFERENCE_S


@dataclass
class Outcome:
    """What one campaign did, as the metrics need it."""

    ok: bool
    pace: float = 1.0
    setup_s: tuple[float, ...] = ()
    wall_s: float = 0.0
    execs: int = 0
    edges: int = 0
    total_edges: int = 0
    full: bool = False
    auc: float = 0.0
    bugs: int = 0
    stages: int = 0
    corpus_entries: int = 0
    finding_inputs: int = 0
    jsonl: str = ""


def run_campaigns(specs: list[Spec], tracer: Tracer | None = None,
                  check: bool = True) -> list[Outcome]:
    """Set up and run every campaign; check its outputs unless told not to.
    The pace probe runs before the first campaign and after each one; a
    campaign's pace is the mean of the probes on either side of it."""
    outcomes = []
    clock = time.perf_counter
    probe = PaceProbe()
    before = probe()
    for spec in specs:
        if tracer is not None:
            tracer.context = spec.mode
        document = spec.document()
        seed_input = bytes(json.loads(document)["max_input_len"])
        setup = []
        try:
            for _ in range(SETUP_REPEATS):
                t0 = clock()
                program = target.load_program(document)
                camp = campaign.Campaign(
                    program, [seed_input], campaign.Mode(spec.mode),
                    campaign.Budget(max_execs=spec.budget),
                    rng_seed=spec.rng_seed, synthetic_time=True,
                )
                setup.append(clock() - t0)
            t0 = clock()
            log = camp.run()
            wall = clock() - t0
        except Exception:
            print(f"campaign {spec.label} raised:\n{traceback.format_exc()}", file=sys.stderr)
            outcomes.append(Outcome(ok=False))
            continue
        after = probe()
        pace = (before + after) / 2
        before = after
        problems: list[str] = []
        bugs: set[int] = set()
        if check:
            problems, bugs = refcheck.check_campaign(refcheck.Reference(document), camp)
            for problem in problems:
                print(f"campaign {spec.label}: {problem}", file=sys.stderr)
        final = log.records[-1]
        outcomes.append(Outcome(
            ok=not problems, pace=pace, setup_s=tuple(setup),
            wall_s=wall, execs=final.execs, edges=final.edges_covered,
            total_edges=program.total_edges, full=camp.coverage.complete,
            auc=coverage_auc(log.records, program.total_edges, spec.budget),
            bugs=len(bugs), stages=final.stage, corpus_entries=len(camp.corpus),
            finding_inputs=len(camp.findings), jsonl=log.to_jsonl(),
        ))
    return outcomes


def log_digest(outcomes: list[Outcome]) -> str:
    digest = hashlib.sha256()
    for outcome in outcomes:
        digest.update(outcome.jsonl.encode("utf-8"))
    return digest.hexdigest()


def adjusted_wall(outcomes: list[Outcome]) -> float:
    return sum(o.wall_s / o.pace for o in outcomes)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(outcomes: list[Outcome]) -> tuple[dict, dict]:
    """The end-to-end metrics, and diagnostic figures to print beside them:
    the times as measured (before dividing by the pace), the figures that
    are not end-to-end metrics, and which percentile the tail is."""
    done = [o for o in outcomes if o.ok]
    walls = sorted(o.wall_s / o.pace for o in done)
    tail_rank = len(walls) - TAIL_BEYOND - 1
    setup = [sum(o.setup_s[r] / o.pace for o in done) for r in range(SETUP_REPEATS)]
    failed = len(outcomes) - len(done)
    execs = sum(o.execs for o in done)
    raw_walls = sorted(o.wall_s for o in done)
    metrics = {
        "execs_per_s": metric(execs / sum(walls), "execs/s"),
        "campaign_s_p50": metric(statistics.median(walls), "s"),
        "campaign_s_tail": metric(walls[max(tail_rank, 0)], "s"),
        "edges_frac": metric(sum(o.edges for o in done) / sum(o.total_edges for o in done), "frac"),
        "cov_auc": metric(statistics.fmean(o.auc for o in done), "frac"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    diagnostics = {
        "campaign_s_tail_percentile": 100 * (tail_rank + 1) / len(walls),
        "campaign_s_tail_beyond": TAIL_BEYOND,
        "campaigns": len(walls),
        "pace_p50": statistics.median(o.pace for o in done),
        "measured_execs_per_s": execs / sum(raw_walls),
        "measured_campaign_s_p50": statistics.median(raw_walls),
        "measured_campaign_s_tail": raw_walls[max(tail_rank, 0)],
        "full_cov_frac": sum(o.full for o in done) / len(outcomes),
        "bugs_found": sum(o.bugs for o in done),
        "failed_frac": failed / len(outcomes),
    }
    return metrics, diagnostics


# -- traced run ---------------------------------------------------------------


def trace_targets(tracer: Tracer) -> list:
    """The public entry points of every layer, with the counts measured at
    their boundaries."""

    def on_execute(args, trace):
        tracer.count("target.execute.edges", len(trace.edges))
        tracer.count("target.execute.obs", len(trace.observations))

    def on_record(args, lowered):
        tracer.count("scheduling.record_execution.lowered", bool(lowered))

    def on_select(args, selection):
        tracer.observe("scheduling.select_next.frontier", len(args[1]))

    def on_absorb(args, new_edges):
        tracer.count("coverage.absorb_trace.new", new_edges > 0)

    return [
        (target.Harness, "execute", "target.execute", on_execute),
        (target, "load_program", "target.load_program", None),
        (coverage.CoverageMap, "absorb_trace", "coverage.absorb_trace", on_absorb),
        (distance, "observation_distance", "distance.observation_distance", None),
        (scheduling.SchedulerState, "record_execution", "scheduling.record_execution", on_record),
        (scheduling.SchedulerState, "select_next", "scheduling.select_next", on_select),
        (mutation, "havoc_mutate", "mutation.havoc_mutate", None),
        (mutation, "compute_subgradient", "mutation.compute_subgradient", None),
        (mutation, "infer_hot_bytes", "mutation.infer_hot_bytes", None),
        (mutation.Mutator, "local_search", "mutation.local_search", None),
        (mutation.Mutator, "mutate_stage", "mutation.mutate_stage", None),
        (campaign.Campaign, "run", "campaign.run", None),
        # Private, but every exec goes through it; as a span of its own it
        # keeps the per-exec bookkeeping out of the self time of whichever
        # layer asked for the exec (local search, for instance).
        (campaign._Executor, "run", "campaign.executor", None),
    ]


class _RootStepExecutor:
    """Executor proxy handed to ``Mutator.mutate_stage``: counts the runs
    made by the stage itself (the root-solver candidates, as opposed to the
    runs inside local search and hot-byte probing) and how many flipped a
    frontier branch."""

    def __init__(self, executor, tracer: Tracer):
        self._executor = executor
        self._tracer = tracer

    def run(self, data, *args, **kwargs):
        outcome = self._executor.run(data, *args, **kwargs)
        if self._tracer.current() == "mutation.mutate_stage":
            self._tracer.count("mutation.root.execs")
            self._tracer.count("mutation.root.flips", outcome.flips > 0)
        return outcome

    def __getattr__(self, name):
        return getattr(self._executor, name)


def traced_run(specs: list[Spec]) -> tuple[Tracer, list[Outcome]]:
    tracer = Tracer()
    tracer.install(trace_targets(tracer))
    mutate_stage = mutation.Mutator.mutate_stage

    def mutate_stage_with_proxy(self, seed, frontier, executor, rng):
        return mutate_stage(self, seed, frontier, _RootStepExecutor(executor, tracer), rng)

    mutation.Mutator.mutate_stage = mutate_stage_with_proxy
    try:
        outcomes = run_campaigns(specs, tracer, check=False)
    finally:
        mutation.Mutator.mutate_stage = mutate_stage
        tracer.uninstall()
    return tracer, outcomes


def per_layer(tracer: Tracer, outcomes: list[Outcome], overhead: float) -> dict:
    t = tracer

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    execute_calls = t.calls("target.execute")
    root_execs = t.counter("mutation.root.execs")
    return {
        "mutation.havoc_mutate.calls": metric(t.calls("mutation.havoc_mutate"), "count"),
        "mutation.havoc_mutate.self_s": metric(t.self_s("mutation.havoc_mutate"), "s"),
        "mutation.havoc_mutate.ns_p50": metric(t.median("mutation.havoc_mutate"), "ns"),
        "target.execute.calls": metric(execute_calls, "count"),
        "target.execute.self_s": metric(t.self_s("target.execute"), "s"),
        "target.execute.ns_p50": metric(t.median("target.execute"), "ns"),
        "target.execute.edges_per_call": metric(
            frac(t.counter("target.execute.edges"), execute_calls), "edges"),
        "target.execute.obs_per_call": metric(
            frac(t.counter("target.execute.obs"), execute_calls), "obs"),
        "scheduling.record_execution.calls": metric(t.calls("scheduling.record_execution"), "count"),
        "scheduling.record_execution.self_s": metric(t.self_s("scheduling.record_execution"), "s"),
        "scheduling.record_execution.lowered_frac": metric(frac(
            t.counter("scheduling.record_execution.lowered"),
            t.calls("scheduling.record_execution")), "frac"),
        "distance.observation_distance.calls": metric(t.calls("distance.observation_distance"), "count"),
        "distance.observation_distance.self_s": metric(t.self_s("distance.observation_distance"), "s"),
        "mutation.local_search.self_s": metric(t.self_s("mutation.local_search"), "s"),
        "mutation.compute_subgradient.calls": metric(t.calls("mutation.compute_subgradient"), "count"),
        "mutation.compute_subgradient.self_s": metric(t.self_s("mutation.compute_subgradient"), "s"),
        "mutation.mutate_stage.self_s": metric(t.self_s("mutation.mutate_stage"), "s"),
        "mutation.infer_hot_bytes.calls": metric(t.calls("mutation.infer_hot_bytes"), "count"),
        "mutation.infer_hot_bytes.self_s": metric(t.self_s("mutation.infer_hot_bytes"), "s"),
        "mutation.root.execs": metric(root_execs, "count"),
        "mutation.root.flip_frac": metric(frac(t.counter("mutation.root.flips"), root_execs), "frac"),
        "scheduling.select_next.calls": metric(t.calls("scheduling.select_next"), "count"),
        "scheduling.select_next.ns_p50": metric(t.median("scheduling.select_next"), "ns"),
        "scheduling.select_next.frontier_p50": metric(
            t.median("scheduling.select_next.frontier"), "branches"),
        "coverage.absorb_trace.self_s": metric(t.self_s("coverage.absorb_trace"), "s"),
        "coverage.absorb_trace.new_edge_frac": metric(frac(
            t.counter("coverage.absorb_trace.new"), t.calls("coverage.absorb_trace")), "frac"),
        "campaign.run.self_s": metric(
            t.self_s("campaign.run") + t.self_s("campaign.executor"), "s"),
        "campaign.execs": metric(sum(o.execs for o in outcomes), "count"),
        "campaign.stages": metric(sum(o.stages for o in outcomes), "count"),
        "campaign.corpus_entries": metric(sum(o.corpus_entries for o in outcomes), "count"),
        "campaign.finding_inputs": metric(sum(o.finding_inputs for o in outcomes), "count"),
        "target.load_program.self_s": metric(t.self_s("target.load_program"), "s"),
        "trace.overhead_frac": metric(overhead, "frac"),
    }


def role_checks(workload: str, tracer: Tracer) -> list[str]:
    """Verdict lines: does the trace show the workload doing what its
    description says?  Diagnostics, not gates."""
    layers = [n for n in tracer.names() if n != "target.load_program"]

    def leaders(k: int, context: str | None = None) -> list[str]:
        return sorted(layers, key=lambda n: -tracer.self_s(n, context))[:k]

    checks = []
    if workload == "suite-havoc":
        checks.append(("local_search is never called",
                       tracer.calls("mutation.local_search") == 0))
    elif workload == "suite-fox":
        pair = ("mutation.local_search", "mutation.compute_subgradient")
        together = sum(tracer.self_s(n) for n in pair)
        top = next(n for n in leaders(len(layers)) if n not in pair)
        checks.append((f"local_search + compute_subgradient lead ({together:.3f} s; "
                       f"next: {top} {tracer.self_s(top):.3f} s)",
                       together > tracer.self_s(top)))
    else:
        for mode in tracer.contexts():
            top = leaders(1, mode)[0]
            checks.append((f"execute has the largest self time in {mode} (largest: {top})",
                           top == "target.execute"))
    return [f"role [{'PASS' if ok else 'FAIL'}] {workload}: {text}" for text, ok in checks]


def layer_shares(tracer: Tracer) -> list[str]:
    lines = []
    for context in tracer.contexts():
        total = tracer.self_s("campaign.run", context) + sum(
            tracer.self_s(n, context) for n in tracer.names()
            if n not in ("campaign.run", "target.load_program"))
        shares = sorted(((tracer.self_s(n, context) / total, n) for n in tracer.names()
                         if n != "target.load_program"), reverse=True)
        lines.append(f"self-time share in {context}: " + ", ".join(
            f"{n} {s:.1%}" for s, n in shares if s >= 0.005))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    specs = campaign_specs(args.workload, args.seed, args.seconds)
    outcomes = run_campaigns(specs)
    failed = sum(not o.ok for o in outcomes)
    digest = log_digest(outcomes)
    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} campaigns, "
          f"{sum(o.execs for o in outcomes)} execs")
    print(f"log_sha256 {digest}")

    if args.trace:
        tracer, traced = traced_run(specs)
        if log_digest(traced) != digest:
            print("traced campaigns logged differently from untraced ones", file=sys.stderr)
            failed = len(outcomes)
        for line in tracer.table() + layer_shares(tracer) + role_checks(args.workload, tracer):
            print(line)
        overhead = adjusted_wall(traced) / adjusted_wall(outcomes) - 1
        metrics = per_layer(tracer, traced, overhead)
    else:
        if failed == len(outcomes):
            print("every campaign failed", file=sys.stderr)
            return 1
        metrics, diagnostics = end_to_end(outcomes)
        for name, value in diagnostics.items():
            print(f"{name:<44} {value:>16.6g}")
        print(f"diagnostics {json.dumps(diagnostics)}")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
