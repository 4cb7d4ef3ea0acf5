"""Branch distance: how close a guard's comparison is to flipping.

The distance of an observation is a fixed function of the (outcome, relation)
pair applied to the signed operand difference: the rows of ``target._ROWS``.
A distance is kept as an order key: the row value for an integer or xor
guard, and ``(L1, values)`` for a string guard, one value per compared byte.
A harness observation is already a key, computed by the guard's step.
``observation_distance`` collapses a key to the one signed int the mutator's
slopes and root steps work in; ``row_function`` gives the root solvers a
row's formula.
"""

from __future__ import annotations

from .target import _ROWS, Relation

__all__ = ["observation_distance", "row_function"]


def row_function(outcome: bool, relation: Relation):
    """The distance formula selected by an (outcome, relation) pair."""
    return _ROWS[(outcome, relation)]


def observation_distance(key) -> int:
    """A distance order key as one int: a scalar keeps its sign, a vector
    collapses to its L1 norm."""
    return key[0] if key.__class__ is tuple else key
