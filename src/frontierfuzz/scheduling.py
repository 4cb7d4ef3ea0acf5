"""Frontier-branch scheduling: clocks, top-seed map, and greedy selection.

Each frontier branch carries two monotone clocks: total time spent by
executions that reached it, and the productive fraction that lowered its
running distance minimum.  The branch score is

    productive_time / (total_time * schedule_count_of_top_seed)

and the stage picks the branch with the highest score, handing back the
top seed recorded for it.  The schedule counter of the chosen seed is then
incremented, which discounts repeat selections.

``record_execution`` owns each branch's distance minimum, kept as a plain
order key so that folding in an observation costs one compare.

Scores are compared in exact rational arithmetic so selection is free of
floating-point tie ambiguity; the equivalent log-probability is reported
for the campaign log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .distance import BranchDistance

__all__ = ["SchedulerState", "StaleSiteError"]


class StaleSiteError(ValueError):
    """An execution was recorded for a site that is not a frontier branch,
    which signals a stale adaptive switch."""


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

    def record_execution(self, site: int, data: bytes, d: BranchDistance,
                         exec_time: int, frontier) -> bool:
        """Fold one reaching execution into the site's minimum and clocks.

        Returns whether the execution strictly lowered the distance minimum
        (a first reach always does).  A distance of the other form than the
        site's minimum raises before any clock moves.
        """
        if site not in frontier:
            raise StaleSiteError(f"site {site} is not a frontier branch")
        values, is_vector = d
        key = (sum(map(abs, values)), values) if is_vector else values[0]
        stats = self.stats.get(site)
        if stats is None:
            self.stats[site] = BranchStats(key, data, exec_time, exec_time)
            return True
        best = stats.best
        if is_vector != (best.__class__ is tuple):
            raise ValueError("distance form mismatch for site %d" % site)
        stats.tt += exec_time
        if key < best:
            stats.best = key
            stats.best_input = data
            stats.pt += exec_time
            return True
        return False

    def schedule_count(self, data: bytes) -> int:
        return self.sc.get(data, 1)

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
            sc = self.schedule_count(stats.best_input)
            score = Fraction(stats.pt, stats.tt * sc)
            if best_score is None or score > best_score:
                best_site = site
                best_score = score
        stats = self.stats[best_site]
        seed = stats.best_input
        sc = self.schedule_count(seed)
        logprob = math.log(stats.pt) - math.log(stats.tt) - math.log(sc)
        self.sc[seed] = sc + 1
        return Selection(branch=best_site, seed=seed, logprob=logprob, sc=sc)
