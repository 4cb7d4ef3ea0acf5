"""Branch distance: how close a guard's comparison is to flipping.

The distance of an observation is a fixed function of the (outcome, relation)
pair applied to the signed operand difference.  Integer and xor guards yield a
scalar; string guards yield one component per compared byte.
"""

from __future__ import annotations

from dataclasses import dataclass

from .target import BranchObservation, Relation

__all__ = [
    "BranchDistance",
    "DistanceRecord",
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


@dataclass(frozen=True, slots=True)
class BranchDistance:
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

    def order_key(self):
        # Scalars order by signed value; vectors by L1 norm with a
        # lexicographic tie-break.
        if self.is_vector:
            return (self.magnitude(), self.values)
        return (self.values[0],)


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


def observation_distance(obs: BranchObservation) -> BranchDistance:
    if obs.byte_diffs is not None:
        return string_distance(obs.outcome, obs.relation, obs.byte_diffs)
    return distance(obs.outcome, obs.relation, obs.f_value)


@dataclass
class DistanceRecord:
    """Per-site minimum distance and the input that achieved it."""

    site: int
    best: BranchDistance | None = None
    best_input: bytes | None = None

    def update(self, data: bytes, d: BranchDistance) -> bool:
        """Replace the minimum iff strictly lower; first observation counts."""
        if self.best is None:
            self.best = d
            self.best_input = data
            return True
        if d.is_vector != self.best.is_vector:
            raise ValueError("distance form mismatch for site %d" % self.site)
        if d.order_key() < self.best.order_key():
            self.best = d
            self.best_input = data
            return True
        return False
