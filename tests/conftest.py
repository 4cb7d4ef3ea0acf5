"""Shared helpers: the campaign's own executor with a fixed set of active
sites, for driving the mutator outside a campaign loop."""

from __future__ import annotations

from frontierfuzz.campaign import Budget, _Executor


def make_executor(program, frontier=()) -> _Executor:
    executor = _Executor(program, Budget(max_execs=1 << 62), synthetic_time=True)
    executor.harness.switch_on(frontier)
    return executor
