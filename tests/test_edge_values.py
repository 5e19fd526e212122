"""Edge values of public numeric functions: each returns or raises a
library error promptly, and none hangs or warns on its way there."""

import contextlib
import math
import signal
import warnings

import numpy as np
import pytest

from cardsketch import (bernoulli_estimate, combine_kth, fisher_info_geometric,
                        gamma_pivot_interval, kth_root_estimate, stable_log_variate,
                        stable_median_log)
from cardsketch.errors import EmptySketchError, EstimationNumericError, SketchError
from cardsketch.estimate import gamma_quantile
from cardsketch.hashing import _ALPHA_MIN
from cardsketch.order_sketch import _newton, kth_closed_form, solve_geometric_mle
from cardsketch.projection import ProjectionSketch

SUBNORMAL = 5e-324


@contextlib.contextmanager
def _time_limit(seconds: float):
    """Raise TimeoutError in the body once it has run for seconds."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(autouse=True)
def _warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("y", [[0.5, 0.0], [0.5, 1e300], [0.5, math.nan], [0.5, -1.0]])
def test_kth_root_refuses_a_kth_value_outside_the_unit_interval(y):
    with _time_limit(2.0), pytest.raises(SketchError) as info:
        kth_root_estimate(y, 2)
    assert isinstance(info.value, EstimationNumericError)
    assert info.value.initial is not None


def test_kth_root_still_solves_values_inside_the_unit_interval():
    with _time_limit(2.0):
        root = kth_root_estimate([0.5, 1.0, SUBNORMAL], 2)
    assert math.isfinite(root) and root > 1.0


def _newton_steps(steps, max_iter=1, start=1.0):
    """Rows from c = start through ``_newton`` above the floor 0, row i's
    step always steps[i]: the rows' c and errors."""
    errors = [None] * len(steps)
    start = np.full(len(steps), start)
    with np.errstate(all="ignore"):
        c = _newton(start.copy(), start, lambda c: np.array(steps), 0.0, 1e-12, max_iter,
                    np.arange(len(steps)), errors, "stub root")
    return c.tolist(), errors


def test_a_newton_step_that_is_not_finite_is_refused():
    for step in (math.inf, -math.inf, math.nan):
        (c,), (error,) = _newton_steps([step])
        assert isinstance(error, EstimationNumericError)
        assert str(error) == "stub root Newton step is not finite at c=1.0"
        assert error.initial == 1.0 and c == 1.0


def test_a_newton_step_past_the_floor_is_halved():
    # 1 - 4 crosses 0, and so do 1 - 2 and 1 - 1; 1 - 0.5 does not
    assert _newton_steps([4.0])[0] == [0.5]
    assert _newton_steps([-3.0])[0] == [4.0]


def test_newton_rows_fail_and_stop_on_their_own():
    c, errors = _newton_steps([math.nan, 0.25, 0.0], max_iter=3)
    assert c == [1.0, 0.25, 1.0]
    assert "not finite" in str(errors[0])
    assert str(errors[1]) == "stub root did not converge within 3 iterations"
    assert errors[1].initial == 1.0 and errors[2] is None


@pytest.mark.parametrize("start, moved, stops", [
    (0.5, 7e-13, True), (0.5, 1.1e-12, False), (2.0, 1.5e-12, True), (2.0, 2.1e-12, False)])
def test_newton_stops_once_a_row_moves_less_than_tol_times_max_c_1(start, moved, stops):
    (c,), (error,) = _newton_steps([moved], start=start)  # tol 1e-12, one step
    assert c == start - moved
    assert (error is None) == stops


@pytest.mark.parametrize("call", [
    lambda a: stable_log_variate(0.5, 1.0, a),
    stable_median_log,
    lambda a: ProjectionSketch(16, a),
], ids=["stable_log_variate", "stable_median_log", "ProjectionSketch"])
def test_alpha_below_the_constructors_bound_is_refused_alike(call):
    with pytest.raises(ValueError, match="alpha must lie at or above") as info:
        call(SUBNORMAL)
    with pytest.raises(ValueError) as constructor:
        ProjectionSketch(16, SUBNORMAL)
    assert str(info.value) == str(constructor.value)
    call(_ALPHA_MIN)  # the bound itself is taken, with no warning


def test_stable_values_at_the_alpha_bound_are_finite():
    assert np.isfinite(stable_log_variate(0.5, 1.0, _ALPHA_MIN))
    assert math.isfinite(stable_median_log(_ALPHA_MIN))


@pytest.mark.parametrize("ones", [SUBNORMAL, 2.5, -1, math.nan, math.inf, 65, 2**70, -2**70])
def test_bernoulli_estimate_refuses_a_count_that_is_not_a_whole_number_in_range(ones):
    with pytest.raises(ValueError, match="ones must be a whole number in"):
        bernoulli_estimate(ones, 64, 0.01)


@pytest.mark.parametrize("ones", [0, 1, 1.0, 63, np.int64(63)])
def test_bernoulli_estimate_takes_whole_counts_below_m(ones):
    est = bernoulli_estimate(ones, 64, 0.01)
    assert est.c_hat == bernoulli_estimate(int(ones), 64, 0.01).c_hat
    assert math.isfinite(est.c_hat) and est.c_hat >= 0.0


# -- the Newton solvers' entry points ------------------------------------

@pytest.mark.parametrize("slot", [math.nan, -1, 2.5, math.inf, -math.inf])
def test_geometric_mle_refuses_a_slot_that_is_not_a_whole_number(slot):
    with _time_limit(2.0), pytest.raises(ValueError, match="slots must be whole numbers"):
        solve_geometric_mle([3, slot, 4], 0.5)


def test_geometric_mle_reads_a_slot_of_0_as_an_empty_stream():
    with _time_limit(2.0), pytest.raises(EmptySketchError):
        solve_geometric_mle([3, 0, 4], 0.5)


def test_geometric_mle_takes_whole_slots_of_any_dtype():
    with _time_limit(2.0):
        root = solve_geometric_mle(np.array([3, 5, 4], dtype=np.uint32), 0.5)
        assert solve_geometric_mle([3.0, 5.0, 4.0], 0.5) == root
        with pytest.raises(SketchError):  # q**y underflows: past double range
            solve_geometric_mle([3, 2**70, 4], 0.5)
    assert all(map(math.isfinite, root))


@pytest.mark.parametrize("y", [[0.5, math.nan], [0.5, 1e300], [0.5, -1.0]])
def test_kth_closed_form_refuses_the_start_the_root_refuses(y):
    with _time_limit(2.0):
        with pytest.raises(EstimationNumericError) as closed:
            kth_closed_form(y, 2)
        with pytest.raises(EstimationNumericError) as root:
            kth_root_estimate(y, 2)
    assert str(closed.value) == str(root.value)
    assert repr(closed.value.initial) == repr(root.value.initial)


# -- the other public numeric functions ----------------------------------

DBL_MAX = 1.7976931348623157e308


@pytest.mark.parametrize("args", [(math.nan, 4, 10.0, 4, 2), (10.0, 4, math.inf, 4, 2),
                                  (10.0, math.nan, 10.0, 4, 2), (10.0, math.inf, 10.0, 4, 2),
                                  (10.0, 4, 10.0, 4, 0), (10.0, 4, 10.0, 4, math.nan)])
def test_combine_kth_refuses_an_estimate_size_or_k_out_of_range(args):
    with pytest.raises(ValueError):
        combine_kth(*args)


def test_combine_kth_refuses_a_pooled_estimate_past_double_range():
    assert combine_kth(DBL_MAX / 2, 1, DBL_MAX / 2, 1, 1) == pytest.approx(DBL_MAX / 2)
    with pytest.raises(EstimationNumericError, match="exceeds double range"):
        combine_kth(DBL_MAX, 4, DBL_MAX, 4, 1)


@pytest.mark.parametrize("s", [math.nan, math.inf, 0.0, -1.0, np.array([1.0, math.nan])])
def test_gamma_pivot_interval_refuses_a_pivot_sum_that_is_not_positive_and_finite(s):
    with pytest.raises(ValueError, match="pivot sum must be positive and finite"):
        gamma_pivot_interval(s, 16, 0.95)


@pytest.mark.parametrize("m", [0, -1, math.nan, math.inf])
def test_gamma_pivot_interval_refuses_an_m_that_is_not_a_positive_integer(m):
    with pytest.raises(ValueError, match="m must be a positive integer"):
        gamma_pivot_interval(1.0, m, 0.95)


def test_gamma_pivot_interval_refuses_a_bound_past_double_range():
    # the upper bound g/s passes DBL_MAX exactly below s = g/DBL_MAX
    edge = gamma_quantile(16, 0.975) / DBL_MAX
    assert all(map(math.isfinite, gamma_pivot_interval(edge, 16, 0.95)))
    for s in (math.nextafter(edge, 0.0), SUBNORMAL, np.array([1.0, SUBNORMAL])):
        with pytest.raises(EstimationNumericError, match="leaves double range"):
            gamma_pivot_interval(s, 16, 0.95)


@pytest.mark.parametrize("c, q, match", [
    (1, SUBNORMAL, "q must lie at or above about 7.46e-155"),
    (1, 1e-300, "q must lie at or above about 7.46e-155"),
    (1e300, 0.5, "c must lie at or below about 1.34e154"),
    (math.inf, 0.5, "c must lie at or below about 1.34e154"),
    (math.nan, 0.5, "c must be >= 1"),
])
def test_fisher_info_geometric_refuses_arguments_past_double_range(c, q, match):
    with _time_limit(2.0), pytest.raises(ValueError, match=match):
        fisher_info_geometric(c, q)


@pytest.mark.parametrize("c, q", [
    (1, math.nextafter(7.4583407312000825e-155, 1.0)),
    (1e150, 1e-120),  # between powers of q the value underflows to 0
    (math.exp(0.5 * math.log(DBL_MAX)), 0.5),
    (math.exp(0.5 * math.log(DBL_MAX)), 1e-3),
])
def test_fisher_info_geometric_is_finite_inside_its_bounds(c, q):
    with _time_limit(2.0):
        info = fisher_info_geometric(c, q)
    assert math.isfinite(info) and info >= 0.0
