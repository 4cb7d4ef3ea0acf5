"""Branch distance: how close a guard's comparison is to flipping.

The distance of an observation is a fixed function of the (outcome, relation)
pair applied to the signed operand difference.  Integer and xor guards yield a
scalar; string guards yield one component per compared byte.
``distance`` validates a raw (outcome, relation, f) triple; ``observation_distance``
trusts the harness, whose outcome came from the same comparison, and applies
the row directly.
"""

from __future__ import annotations

from typing import NamedTuple

from .target import BranchObservation, Relation

__all__ = [
    "BranchDistance",
    "distance",
    "string_distance",
    "observation_distance",
    "row_function",
]

# Distance rows keyed by (outcome, relation).  Pairs sharing a formula
# collapse onto the same function of the operand difference f.
_ROWS = {
    (False, Relation.LT): lambda f: f - 1,
    (True, Relation.GE): lambda f: f - 1,
    (False, Relation.LE): lambda f: f,
    (True, Relation.GT): lambda f: f,
    (False, Relation.GT): lambda f: 1 - f,
    (True, Relation.LE): lambda f: 1 - f,
    (False, Relation.GE): lambda f: -f,
    (True, Relation.LT): lambda f: -f,
    (False, Relation.EQ): lambda f: abs(f),
    (True, Relation.NE): lambda f: abs(f),
    (False, Relation.NE): lambda f: 1 - abs(f),
    (True, Relation.EQ): lambda f: 1 - abs(f),
}


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


# Skips the NamedTuple's Python-level ``__new__``, about a quarter of
# ``observation_distance``'s cost when measured.
_new = tuple.__new__


def observation_distance(obs: BranchObservation) -> BranchDistance:
    """Distance of a harness observation; its outcome is not re-checked."""
    _, outcome, relation, f, diffs, _ = obs
    row = _ROWS[outcome, relation]
    if diffs is None:
        return _new(BranchDistance, ((row(f),), False))
    return _new(BranchDistance, (tuple(map(row, diffs)), True))
