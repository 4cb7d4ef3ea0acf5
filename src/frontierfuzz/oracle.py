"""Executable check that the greedy schedule is optimal, the check
``frontierfuzz verify-theorem`` runs.

An abstract instance fixes, per branch, the probability that one mutation
batch flips it, with one best seed per branch.  Scheduling branch ``b`` for
``n`` stages flips it with probability ``1 - (1 - p_b) ** n``, so a schedule's
expected coverage is the sum of those terms.  ``verify`` enumerates every
schedule of the instance exhaustively and confirms the greedy choice attains
the optimum.  All arithmetic is exact rationals so optimality is a hard
equality, never a float comparison.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["AbstractInstance", "check_enumerable", "expected_coverage", "greedy_schedule",
           "verify"]

_ENUMERATION_LIMIT = 10 ** 7


@dataclass(frozen=True)
class AbstractInstance:
    """Fixed per-branch flip probabilities and a stage count."""

    probabilities: tuple[Fraction, ...]
    stages: int

    def __post_init__(self):
        object.__setattr__(
            self, "probabilities", tuple(Fraction(p) for p in self.probabilities)
        )
        if not self.probabilities:
            raise ValueError("instance needs at least one branch")
        if self.stages < 0:
            raise ValueError("stages must be >= 0")
        for p in self.probabilities:
            if not 0 <= p <= 1:
                raise ValueError(f"probability {p} outside [0, 1]")

    @property
    def branches(self) -> int:
        return len(self.probabilities)


def expected_coverage(instance: AbstractInstance, schedule) -> Fraction:
    """Exact expected number of flipped branches under the schedule.

    Depends only on how often each branch is chosen, not on the order.
    """
    schedule = tuple(schedule)
    if len(schedule) != instance.stages:
        raise ValueError(f"schedule length {len(schedule)} != stages {instance.stages}")
    counts = Counter(schedule)
    total = Fraction(0)
    for branch, n in counts.items():
        if not 0 <= branch < instance.branches:
            raise ValueError(f"branch choice {branch} out of range")
        p = instance.probabilities[branch]
        total += 1 - (1 - p) ** n
    return total


def greedy_schedule(instance: AbstractInstance) -> tuple[int, ...]:
    """Stage-by-stage argmax of the marginal expected gain.

    With branch ``b`` already chosen ``n`` times, choosing it again adds
    ``(1 - p_b) ** n * p_b``.  Ties break toward the lowest branch index.
    No repeat-selection discount applies here; the probabilities are fixed.
    """
    marginals = list(instance.probabilities)
    schedule = []
    for _ in range(instance.stages):
        best = max(range(instance.branches), key=lambda b: (marginals[b], -b))
        schedule.append(best)
        marginals[best] *= 1 - instance.probabilities[best]
    return tuple(schedule)


def check_enumerable(branches: int, stages: int) -> None:
    """Raise ``ValueError`` when ``branches ** stages`` schedules exceed the
    limit.  Stage counts that exceed it even with two branches are rejected
    without computing the power, which for huge flags would not finish."""
    if branches > 1 and (stages >= _ENUMERATION_LIMIT.bit_length()
                         or branches ** stages > _ENUMERATION_LIMIT):
        raise ValueError(f"instance too large to enumerate: {branches}^{stages} schedules")


@dataclass(frozen=True)
class VerifyResult:
    greedy_value: Fraction
    optimum_value: Fraction
    optimal: bool


def verify(instance: AbstractInstance) -> VerifyResult:
    """Compare the greedy schedule against the exhaustive optimum.

    The nominal search space has ``branches ** stages`` schedules; since the
    objective is order-invariant, the enumeration walks choice multisets,
    which covers exactly the same set of objective values.
    """
    check_enumerable(instance.branches, instance.stages)
    greedy_value = expected_coverage(instance, greedy_schedule(instance))
    optimum = None
    for combo in itertools.combinations_with_replacement(
        range(instance.branches), instance.stages
    ):
        value = expected_coverage(instance, combo)
        if optimum is None or value > optimum:
            optimum = value
    return VerifyResult(
        greedy_value=greedy_value,
        optimum_value=optimum,
        optimal=greedy_value == optimum,
    )
