import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frontierfuzz.distance import observation_distance
from frontierfuzz.target import GuardKind, Harness, Relation, program_from_dict
from reference import distance, guard_feedback, holds, string_distance
from test_target import _documents


class TestScalarDistance:
    def test_true_le_example(self):
        # "byte <= 15" with input 5: f = -10, distance 1 - f = 11.
        assert distance(True, Relation.LE, -10) == 11

    def test_false_lt_example(self):
        assert distance(False, Relation.LT, 7) == 6

    def test_true_ne_example(self):
        assert distance(True, Relation.NE, 5) == 5

    def test_inconsistent_tuple_rejected(self):
        with pytest.raises(ValueError, match="inconsistent"):
            distance(True, Relation.LT, 3)  # 3 < 0 is false

    @pytest.mark.parametrize("relation", list(Relation))
    @pytest.mark.parametrize("f", range(-3, 4))
    def test_only_consistent_outcome_accepted(self, relation, f):
        outcome = holds(relation, f)
        distance(outcome, relation, f)
        with pytest.raises(ValueError):
            distance(not outcome, relation, f)


class TestStringDistance:
    def test_per_byte_absolute(self):
        assert string_distance(True, Relation.NE, (0, 0, -99)) == (99, (0, 0, 99))

    def test_equality_root_is_all_zero(self):
        assert string_distance(False, Relation.EQ, (0, 0, 0)) == (0, (0, 0, 0))

    def test_single_component(self):
        assert string_distance(False, Relation.EQ, (1,)) == (1, (1,))

    def test_scalarize_keeps_scalar_sign_and_sums_vectors(self):
        assert observation_distance(distance(True, Relation.GE, 0)) == -1
        assert observation_distance(string_distance(False, Relation.EQ, (-2, 0, 5))) == 7

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            string_distance(False, Relation.EQ, ())

    def test_matches_scalar_rule_per_index(self):
        # Oracle: the site's row formula applied independently per index.
        diffs = (3, -2, 0, 7)
        _, values = string_distance(False, Relation.EQ, diffs)
        assert values == tuple(abs(f) for f in diffs)
        _, values = string_distance(True, Relation.LE, diffs)
        assert values == tuple(1 - f for f in diffs)


@settings(max_examples=200, deadline=None)
@given(_documents(), st.data())
def test_observation_distance_matches_validating_distance(doc, data):
    # The distance key a guard's step computes equals the one the validating
    # functions compute from the same input's raw feedback (``guard_feedback``),
    # and observation_distance is its scalarized value.
    program = program_from_dict(doc)
    harness = Harness(program, synthetic_time=True)
    harness.switch_on(program.node_ids)
    for x in data.draw(st.lists(st.binary(max_size=program.max_input_len), max_size=8)):
        for site, key in harness.execute(x).observations.items():
            node = program.nodes[site]
            outcome, feedback = guard_feedback(node, x)
            if node.kind is GuardKind.STR:
                expected = string_distance(outcome, node.relation, feedback)
                scalar = expected[0]
            else:
                expected = scalar = distance(outcome, node.relation, feedback)
            assert key == expected
            assert observation_distance(key) == scalar
