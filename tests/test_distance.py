import pytest
from frontierfuzz.distance import distance, string_distance
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

