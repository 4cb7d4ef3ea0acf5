"""Branch distance: how close a guard's comparison is to flipping.

The distance of an observation is a fixed function of the (outcome, relation)
pair applied to the signed operand difference: the rows of ``target._FORMULAS``.
A distance is kept as an order key: the row value for an integer or xor
guard, and ``(L1, values)`` for a string guard, one value per compared byte.
A harness observation is already a key, computed by the guard's step.
``observation_distance`` collapses a key to the one signed int the mutator's
slopes and root steps work in.
"""

from __future__ import annotations

__all__ = ["observation_distance"]


def observation_distance(key) -> int:
    """A distance order key as one int: a scalar keeps its sign, a vector
    collapses to its L1 norm."""
    return key[0] if key.__class__ is tuple else key
