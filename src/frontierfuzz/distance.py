"""Branch distance: how close a guard's comparison is to flipping.

The distance of an observation is a fixed function of the (outcome, relation)
pair applied to the signed operand difference: the rows of ``target._ROWS``.
Integer and xor guards yield a scalar; string guards yield one component per
compared byte.  ``distance`` and ``string_distance`` validate and apply a row
to raw input; a harness observation already carries its distance, applied by
the guard's step as an order key, and ``observation_distance`` only reads it.
"""

from __future__ import annotations

from typing import NamedTuple

from .target import _ROWS, BranchObservation, Relation

__all__ = [
    "BranchDistance",
    "distance",
    "string_distance",
    "observation_distance",
    "row_function",
]


def row_function(outcome: bool, relation: Relation):
    """The distance formula selected by an (outcome, relation) pair."""
    return _ROWS[(outcome, relation)]


class BranchDistance(NamedTuple):
    """Scalar or per-byte-vector distance value."""

    values: tuple[int, ...]
    is_vector: bool = False

    @property
    def scalar(self) -> int:
        if self.is_vector:
            raise ValueError("vector distance has no scalar value")
        return self.values[0]

    def magnitude(self) -> int:
        """L1 norm; for scalars this is the absolute value."""
        return sum(abs(v) for v in self.values)

    def scalarize(self) -> int:
        """Vectors collapse to their L1 norm; scalars keep their sign."""
        return self.magnitude() if self.is_vector else self.values[0]


def distance(outcome: bool, relation: Relation, f: int) -> BranchDistance:
    """Scalar distance for a consistent (outcome, relation, f) observation."""
    if relation.holds(f) != outcome:
        raise ValueError(
            f"inconsistent observation: outcome={outcome} but f={f} under {relation.value}"
        )
    return BranchDistance((_ROWS[(outcome, relation)](f),))


def string_distance(outcome: bool, relation: Relation, byte_diffs) -> BranchDistance:
    """Per-byte distance vector: the scalar rule applied to each position."""
    diffs = tuple(byte_diffs)
    if not diffs:
        raise ValueError("byte_diffs must be nonempty")
    row = _ROWS[(outcome, relation)]
    return BranchDistance(tuple(row(f) for f in diffs), is_vector=True)


# Skips the NamedTuple's Python-level ``__new__``.
_new = tuple.__new__


def observation_distance(obs: BranchObservation) -> BranchDistance:
    """The distance the harness computed for ``obs``, read off its key."""
    key = obs.key
    if key.__class__ is tuple:
        return _new(BranchDistance, (key[1], True))
    return _new(BranchDistance, ((key,), False))
