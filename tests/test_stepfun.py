import numpy as np
import pytest

from recurrisk.errors import InvalidParameterError
from recurrisk.stepfun import StepFunction, average_step_functions

SF = StepFunction([1.0, 2.0, 4.0], [0.5, 0.75, 2.0], initial_value=0.25)


@pytest.mark.parametrize("t, right, left", [
    (0.5, 0.25, 0.25),     # before the first knot
    (1.0, 0.5, 0.25),      # at a knot: the new value, its left limit the old one
    (1.5, 0.5, 0.5),       # between knots
    (2.0, 0.75, 0.5),
    (4.0, 2.0, 0.75),      # at the last knot
    (9.0, 2.0, 2.0),       # after it
])
def test_right_continuous_value_and_left_limit(t, right, left):
    assert SF(t) == right
    assert SF.evaluate_left(t) == left


def test_array_evaluation_matches_scalars():
    grid = np.array([0.5, 1.0, 1.5, 2.0, 4.0, 9.0])
    assert SF(grid).tolist() == [SF(t) for t in grid]
    assert SF.evaluate_left(grid).tolist() == [SF.evaluate_left(t) for t in grid]
    assert isinstance(SF(1.5), float)


def test_empty_knots_give_the_initial_value():
    sf = StepFunction([], [], initial_value=0.3)
    assert sf(5.0) == 0.3 and sf.evaluate_left(5.0) == 0.3
    assert sf(np.array([1.0, 2.0])).tolist() == [0.3, 0.3]
    assert sf.knots.size == 0 and sf.values.size == 0


@pytest.mark.parametrize("knots", [[1.0, 1.0], [2.0, 1.0], [1.0, 3.0, 2.0]])
def test_non_increasing_knots_raise(knots):
    with pytest.raises(InvalidParameterError):
        StepFunction(knots, np.zeros(len(knots)))


def test_mismatched_lengths_raise():
    with pytest.raises(InvalidParameterError):
        StepFunction([1.0, 2.0], [0.5])


def test_exp_neg_maps_every_value():
    surv = SF.exp_neg()
    assert surv.knots.tolist() == SF.knots.tolist()
    assert surv.values.tolist() == np.exp(-SF.values).tolist()
    assert surv.initial_value == float(np.exp(-0.25))


def test_average_over_disjoint_knots():
    a = StepFunction([1.0, 3.0], [1.0, 3.0], initial_value=0.0)
    b = StepFunction([2.0, 4.0], [2.0, 6.0], initial_value=1.0)
    avg = average_step_functions([a, b])
    assert avg.knots.tolist() == [1.0, 2.0, 3.0, 4.0]
    assert avg.values.tolist() == [(1.0 + 1.0) / 2, (1.0 + 2.0) / 2,
                                   (3.0 + 2.0) / 2, (3.0 + 6.0) / 2]
    assert avg.initial_value == 0.5
    for t in (0.5, 1.0, 2.5, 3.0, 10.0):
        assert avg(t) == (a(t) + b(t)) / 2


def test_average_with_an_empty_function():
    empty = StepFunction([], [], initial_value=1.0)
    avg = average_step_functions([empty, StepFunction([2.0], [3.0])])
    assert avg.knots.tolist() == [2.0] and avg.values.tolist() == [2.0]
    assert average_step_functions([empty]).knots.size == 0


def test_average_of_nothing_raises():
    with pytest.raises(InvalidParameterError):
        average_step_functions([])
