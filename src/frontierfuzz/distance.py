"""Branch distance: how close a guard's comparison is to flipping.

The distance of an observation is a fixed function of the (outcome, relation)
pair applied to the signed operand difference: the rows of ``target._ROWS``.
A distance is kept as an order key: the row value for an integer or xor
guard, and ``(L1, values)`` for a string guard, one value per compared byte.
``distance`` and ``string_distance`` validate and apply a row to raw
feedback; a harness observation is already a key, computed by the guard's
step.  ``observation_distance`` collapses a key to the one signed int the
mutator's slopes and root steps and the convexity probe work in.
"""

from __future__ import annotations

from .target import _ROWS, Relation

__all__ = [
    "distance",
    "string_distance",
    "observation_distance",
    "row_function",
]


def row_function(outcome: bool, relation: Relation):
    """The distance formula selected by an (outcome, relation) pair."""
    return _ROWS[(outcome, relation)]


def distance(outcome: bool, relation: Relation, f: int) -> int:
    """Row value of a consistent (outcome, relation, f) observation."""
    if relation.holds(f) != outcome:
        raise ValueError(
            f"inconsistent observation: outcome={outcome} but f={f} under {relation.value}"
        )
    return _ROWS[(outcome, relation)](f)


def string_distance(outcome: bool, relation: Relation,
                    byte_diffs) -> tuple[int, tuple[int, ...]]:
    """``(L1, values)`` key of a string comparison: the scalar rule applied
    to each compared position."""
    diffs = tuple(byte_diffs)
    if not diffs:
        raise ValueError("byte_diffs must be nonempty")
    row = _ROWS[(outcome, relation)]
    values = tuple(row(f) for f in diffs)
    return sum(abs(v) for v in values), values


def observation_distance(key) -> int:
    """A distance order key as one int: a scalar keeps its sign, a vector
    collapses to its L1 norm."""
    return key[0] if key.__class__ is tuple else key
