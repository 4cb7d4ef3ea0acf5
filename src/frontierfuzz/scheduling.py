"""Frontier-branch scheduling: clocks, top-seed map, and greedy selection.

Each frontier branch carries two monotone clocks: total time spent by
executions that reached it, and the productive fraction that lowered its
running distance minimum.  The branch score is

    productive_time / (total_time * sc[top_seed])

and the stage picks the branch with the highest score, handing back the
top seed recorded for it.  A seed's schedule counter ``sc`` starts at 1 and
is incremented each time it is handed back, which discounts repeat
selections.

``record_execution`` owns each branch's distance minimum, kept as a plain
order key.  It folds one execution's whole site-keyed map of keys, which the
guards' steps computed, in one call: each frontier site costs one class
check and one compare, and sites off the frontier are skipped.

Scores are compared in exact rational arithmetic so selection is free of
floating-point tie ambiguity; the equivalent log-probability is reported
for the campaign log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["SchedulerState", "StaleSiteError"]


class StaleSiteError(ValueError):
    """A frontier branch has never been reached, so it has no clocks to
    score: the frontier and the recorded executions are out of step."""


@dataclass(slots=True)
class BranchStats:
    """Distance minimum, clocks and counters for one frontier branch.

    ``best`` is the running distance minimum as a plain order key: the signed
    value of a scalar, or ``(L1, values)`` for a vector, whose L1 ties break
    lexicographically.  ``best_input`` is the earliest input that reached it.
    ``pt``/``tt`` are productive/total reach time in nanoseconds.
    """

    best: int | tuple[int, tuple[int, ...]]
    best_input: bytes
    pt: int
    tt: int


@dataclass(frozen=True)
class Selection:
    """Outcome of one scheduling decision."""

    branch: int
    seed: bytes
    logprob: float
    sc: int


class SchedulerState:
    """All per-branch stats plus the per-input schedule counters."""

    def __init__(self):
        self.stats: dict[int, BranchStats] = {}
        self.sc: dict[bytes, int] = {}

    def record_execution(self, data: bytes, observations, exec_time: int, frontier) -> int:
        """Fold one execution's site-keyed map of distance order keys (see
        ``ExecutionTrace.observations``) into each frontier site's minimum
        and clocks; sites not on ``frontier`` are skipped.

        Returns how many minima the execution strictly lowered (a first
        reach always does).  A key of the other form than its site's minimum
        raises before that site's clocks move.
        """
        all_stats = self.stats
        lowered = 0
        for site, key in observations.items():
            if site not in frontier:
                continue
            stats = all_stats.get(site)
            if stats is None:
                all_stats[site] = BranchStats(key, data, exec_time, exec_time)
                lowered += 1
                continue
            best = stats.best
            if key.__class__ is not best.__class__:
                raise ValueError("distance form mismatch for site %d" % site)
            stats.tt += exec_time
            if key < best:
                stats.best = key
                stats.best_input = data
                stats.pt += exec_time
                lowered += 1
        return lowered

    def select_next(self, frontier) -> Selection:
        """Greedy argmax of the discounted score over the frontier.

        Ties break toward the lowest node id.  The winner's top-seed schedule
        counter is incremented.
        """
        if not frontier:
            raise ValueError("cannot select from an empty frontier")
        best_site = None
        best_score: Fraction | None = None
        for site in sorted(frontier):
            stats = self.stats.get(site)
            if stats is None:
                raise StaleSiteError(f"frontier branch {site} has never been reached")
            sc = self.sc.get(stats.best_input, 1)
            score = Fraction(stats.pt, stats.tt * sc)
            if best_score is None or score > best_score:
                best_site = site
                best_score = score
        stats = self.stats[best_site]
        seed = stats.best_input
        sc = self.sc.get(seed, 1)
        logprob = math.log(stats.pt) - math.log(stats.tt) - math.log(sc)
        self.sc[seed] = sc + 1
        return Selection(branch=best_site, seed=seed, logprob=logprob, sc=sc)
