import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontierfuzz.distance import (
    BranchDistance,
    DistanceRecord,
    distance,
    string_distance,
)
from frontierfuzz.target import Relation


class TestScalarDistance:
    def test_true_le_example(self):
        # "byte <= 15" with input 5: f = -10, distance 1 - f = 11.
        assert distance(True, Relation.LE, -10).scalar == 11

    def test_false_lt_example(self):
        assert distance(False, Relation.LT, 7).scalar == 6

    def test_true_ne_example(self):
        assert distance(True, Relation.NE, 5).scalar == 5

    def test_inconsistent_tuple_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            distance(True, Relation.LT, 3)  # 3 < 0 is false

    @pytest.mark.parametrize("relation", list(Relation))
    @pytest.mark.parametrize("f", range(-3, 4))
    def test_only_consistent_outcome_accepted(self, relation, f):
        outcome = relation.holds(f)
        distance(outcome, relation, f)
        with pytest.raises(ValueError):
            distance(not outcome, relation, f)


class TestStringDistance:
    def test_per_byte_absolute(self):
        d = string_distance(True, Relation.NE, (0, 0, -99))
        assert d.values == (0, 0, 99)
        assert d.is_vector

    def test_equality_root_is_all_zero(self):
        assert string_distance(False, Relation.EQ, (0, 0, 0)).values == (0, 0, 0)

    def test_single_component(self):
        assert string_distance(False, Relation.EQ, (1,)).values == (1,)

    def test_scalarize_keeps_scalar_sign_and_sums_vectors(self):
        assert distance(True, Relation.GE, 0).scalarize() == -1
        assert string_distance(False, Relation.EQ, (-2, 0, 5)).scalarize() == 7

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            string_distance(False, Relation.EQ, ())

    def test_matches_scalar_rule_per_index(self):
        # Oracle: the site's row formula applied independently per index.
        diffs = (3, -2, 0, 7)
        vec = string_distance(False, Relation.EQ, diffs)
        assert vec.values == tuple(abs(f) for f in diffs)
        vec = string_distance(True, Relation.LE, diffs)
        assert vec.values == tuple(1 - f for f in diffs)


class TestDistanceRecord:
    def test_first_observation_lowers(self):
        rec = DistanceRecord(site=0)
        assert rec.update(b"a", BranchDistance((11,))) is True
        assert rec.best.scalar == 11
        assert rec.best_input == b"a"

    def test_strictly_lower_replaces(self):
        rec = DistanceRecord(site=0)
        rec.update(b"a", BranchDistance((11,)))
        assert rec.update(b"b", BranchDistance((9,))) is True
        assert rec.best.scalar == 9
        assert rec.best_input == b"b"

    def test_tie_keeps_earlier(self):
        rec = DistanceRecord(site=0)
        rec.update(b"a", BranchDistance((9,)))
        assert rec.update(b"b", BranchDistance((9,))) is False
        assert rec.best_input == b"a"

    def test_form_mismatch_rejected(self):
        rec = DistanceRecord(site=0)
        rec.update(b"a", BranchDistance((9,)))
        with pytest.raises(ValueError, match="form"):
            rec.update(b"b", BranchDistance((9, 1), is_vector=True))

    def test_vector_order_l1_then_lexicographic(self):
        rec = DistanceRecord(site=0)
        rec.update(b"a", BranchDistance((3, 3), is_vector=True))
        # Same L1 norm: lexicographic tie-break, (2, 4) < (3, 3).
        assert rec.update(b"b", BranchDistance((2, 4), is_vector=True)) is True
        # Lower L1 always wins.
        assert rec.update(b"c", BranchDistance((5, 0), is_vector=True)) is True

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
            min_size=1,
            max_size=10,
        )
    )
    def test_vector_minimum_matches_sorted_order(self, vectors):
        # Oracle: brute-force minimum under the (L1, lexicographic) key.
        rec = DistanceRecord(site=0)
        for i, v in enumerate(vectors):
            rec.update(bytes([i]), BranchDistance(v, is_vector=True))
        expected = min(vectors, key=lambda v: (abs(v[0]) + abs(v[1]), v))
        assert rec.best.values == expected
