"""Shared helpers: the campaign's own executor, with no budget and a fixed
set of active sites, for driving the mutator outside a campaign loop."""

from __future__ import annotations

from frontierfuzz.campaign import _Executor


def make_executor(program, frontier=()) -> _Executor:
    executor = _Executor(program, synthetic_time=True)
    executor.harness.switch_on(frontier)
    return executor
