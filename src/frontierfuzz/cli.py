"""Command-line entry points: run campaigns, fold stats, verify the scheduler
optimality oracle."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from . import builtin_targets
from .campaign import Budget, Campaign, Mode
from .oracle import AbstractInstance, check_enumerable, verify
from .target import GuardProgram, load_program

# Probability grid used for random oracle instances: 0, 0.1, ..., 1.
_PROBABILITY_GRID = [Fraction(i, 10) for i in range(11)]


def _load_target(ref: str) -> GuardProgram:
    if ref.startswith("builtin:"):
        try:
            return builtin_targets.load(ref.split(":", 1)[1])
        except KeyError as exc:  # unknown name; the message is args[0]
            raise ValueError(exc.args[0]) from None
    return load_program(Path(ref).read_bytes())


def _load_seeds(seeds_dir: str | None, program: GuardProgram) -> list[bytes]:
    if seeds_dir is None:
        # Default: one all-zeros seed, enough to reach the entry guard.
        try:
            return [bytes(program.max_input_len)]
        except MemoryError:
            raise ValueError(
                f"max_input_len {program.max_input_len} is too large for the default "
                "all-zeros seed; pass --seeds"
            ) from None
    paths = sorted(p for p in Path(seeds_dir).iterdir() if p.is_file())
    if not paths:
        raise ValueError(f"no seed files in {seeds_dir}")
    for p in paths:
        if p.stat().st_size > program.max_input_len:
            raise ValueError(f"seed file {p} is longer than max_input_len {program.max_input_len}")
    return [p.read_bytes() for p in paths]


def _cmd_run(args: argparse.Namespace) -> int:
    if args.budget_execs is None and args.budget_secs is None:
        raise SystemExit("one of --budget-execs / --budget-secs is required")
    # Set-up errors (bad target, seeds, knobs or --out) and a blocked output
    # path end the command with one line; the campaign itself is not wrapped.
    out = Path(args.out)
    try:
        program = _load_target(args.target)
        seeds = _load_seeds(args.seeds, program)
        budget = Budget(
            max_execs=args.budget_execs,
            max_time_ns=None if args.budget_secs is None else int(args.budget_secs * 1e9),
        )
        campaign = Campaign(
            program, seeds, Mode(args.mode), budget,
            args.sample_size, args.rng_seed, args.synthetic_time,
        )
        for sub in ("corpus", "findings"):
            (out / sub).mkdir(parents=True, exist_ok=True)
    except (OSError, OverflowError, ValueError) as exc:
        raise SystemExit(f"frontierfuzz run: {exc}") from None
    # A Ctrl-C keeps the records of the finished stages and every input found.
    interrupted = False
    try:
        campaign.run()
    except KeyboardInterrupt:
        interrupted = True
    log = campaign.log

    try:
        (out / "stats.jsonl").write_text(log.to_jsonl(), encoding="utf-8")
        for entry in campaign.corpus.entries:
            (out / "corpus" / f"{entry.exec_index:08d}").write_bytes(entry.data)
        for exec_index, data in campaign.findings:
            (out / "findings" / f"{exec_index:08d}").write_bytes(data)
    except OSError as exc:
        raise SystemExit(f"frontierfuzz run: {exc}") from None

    if log.records:
        final = log.records[-1]
        end = "covered" if campaign.coverage.complete else "budget"
        print(
            f"mode={final.mode} execs={final.execs} edges={final.edges_covered}"
            f"/{program.total_edges} corpus={final.corpus_size} flips={final.flips}"
            f" findings={len(campaign.findings)}"
            f" ended={'interrupted' if interrupted else end}"
        )
    if interrupted:
        print(f"frontierfuzz run: interrupted; wrote {len(log.records)} stage records",
              file=sys.stderr)
        return 130
    return 0


def _percentile(sorted_values: list[int], q: float) -> float:
    """Linear-interpolation percentile over pre-sorted, nonempty values."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def _read_stats(path: Path) -> tuple[str | None, list[tuple[int, int]]]:
    """The mode and the (t_ns, edges_covered) series of one stats file.  An
    unreadable file, a malformed record, a record whose ``mode`` differs from
    the previous record's, or one whose ``t_ns`` or ``edges_covered`` falls
    below 0 or the previous record's ends the command with one line."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SystemExit(f"frontierfuzz report: {path}: {exc}") from None
    mode = None
    series: list[tuple[int, int]] = []
    for lineno, line in enumerate(lines, 1):
        where = f"frontierfuzz report: {path}:{lineno}"
        try:
            rec = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise SystemExit(f"{where}: not JSON: {exc}") from None
        if not isinstance(rec, dict):
            raise SystemExit(f"{where}: not a JSON object")
        for key, kind in (("mode", str), ("t_ns", int), ("edges_covered", int)):
            if type(rec.get(key)) is not kind:
                raise SystemExit(f"{where}: {key!r} missing or not {kind.__name__}")
        if series and rec["mode"] != mode:
            raise SystemExit(f"{where}: 'mode' changes from {mode!r} to {rec['mode']!r}")
        for key, last in zip(("t_ns", "edges_covered"), series[-1] if series else (0, 0)):
            if rec[key] < last:
                raise SystemExit(f"{where}: {key!r} goes backwards ({rec[key]} < {last})")
        mode = rec["mode"]
        series.append((rec["t_ns"], rec["edges_covered"]))
    return mode, series


def _cmd_report(args: argparse.Namespace) -> int:
    out = Path(args.out)
    runs: dict[str, list[list[tuple[int, int]]]] = {}
    paths = sorted(out.rglob("stats.jsonl"))
    for stats_path in paths:
        mode, series = _read_stats(stats_path)
        if mode is not None:
            runs.setdefault(mode, []).append(series)
    if not runs:
        # A run stopped during its seed phase leaves an empty stats file.
        if paths:
            raise SystemExit(
                f"frontierfuzz report: the stats.jsonl files under {out} hold no records")
        raise SystemExit(f"frontierfuzz report: no stats.jsonl files under {out}")

    max_t = max(s[-1][0] for run_list in runs.values() for s in run_list)
    grid = [max_t * i // 20 for i in range(21)]
    lines = ["mode,t_ns,edges_median,edges_p25,edges_p75"]
    for mode in sorted(runs):
        for t in grid:
            at_t = []
            for series in runs[mode]:
                covered = 0
                for t_ns, edges in series:
                    if t_ns <= t:
                        covered = edges
                    else:
                        break
                at_t.append(covered)
            at_t.sort()
            lines.append(
                f"{mode},{t},{_percentile(at_t, 0.5):.1f},"
                f"{_percentile(at_t, 0.25):.1f},{_percentile(at_t, 0.75):.1f}"
            )
    report_path = out / "report.csv"
    try:
        report_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise SystemExit(f"frontierfuzz report: {exc}") from None
    print(f"wrote {report_path} ({len(lines) - 1} rows)")
    return 0


def _cmd_verify_theorem(args: argparse.Namespace) -> int:
    # Checked before any trial: the largest instance a trial can draw has
    # --branches branches and --stages stages.  One branch is held to the
    # two-branch --stages bound: its exact rationals grow with the stages.
    for flag in ("branches", "stages", "trials"):
        value = getattr(args, flag)
        if value < 1:
            raise SystemExit(f"frontierfuzz verify-theorem: --{flag} must be >= 1, got {value}")
    try:
        check_enumerable(max(args.branches, 2), args.stages)
    except ValueError as exc:
        raise SystemExit(f"frontierfuzz verify-theorem: {exc}") from None
    rng = Random(args.rng_seed)
    optimal_count = 0
    for trial in range(args.trials):
        m = rng.randint(1, args.branches)
        k = rng.randint(1, args.stages)
        probabilities = tuple(rng.choice(_PROBABILITY_GRID) for _ in range(m))
        instance = AbstractInstance(probabilities=probabilities, stages=k)
        result = verify(instance)
        optimal_count += result.optimal
        probs = ",".join(str(p) for p in probabilities)
        print(
            f"trial {trial}: branches={m} stages={k} p=[{probs}] "
            f"greedy={result.greedy_value} optimum={result.optimum_value} "
            f"optimal={str(result.optimal).lower()}"
        )
    print(f"optimal {optimal_count}/{args.trials}")
    return 0 if optimal_count == args.trials else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frontierfuzz",
        description="Coverage-guided fuzzing engine over guard-tree targets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one fuzzing campaign")
    p_run.add_argument("--target", required=True,
                       help="path to a target document, or builtin:NAME")
    p_run.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.FOX.value)
    p_run.add_argument("--budget-execs", type=int, default=None)
    p_run.add_argument("--budget-secs", type=float, default=None)
    p_run.add_argument("--seeds", default=None, help="directory of seed files")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--rng-seed", type=int, default=0)
    p_run.add_argument("--sample-size", type=int, default=1024,
                       help="most local-search samples per fox stage (a search stops "
                            "after a chunk of 64 that improves no record, or once every "
                            "live branch has one), and the mutants per plain havoc batch")
    p_run.add_argument("--synthetic-time", action="store_true",
                       help="count one deterministic time unit per execution")
    p_run.set_defaults(func=_cmd_run)

    p_report = sub.add_parser("report", help="fold stats.jsonl files into a CSV")
    p_report.add_argument("--out", required=True,
                          help="directory holding stats.jsonl files (searched recursively)")
    p_report.set_defaults(func=_cmd_report)

    p_verify = sub.add_parser("verify-theorem",
                              help="check greedy-schedule optimality on random instances")
    p_verify.add_argument("--branches", type=int, default=4)
    p_verify.add_argument("--stages", type=int, default=6)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--rng-seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify_theorem)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
