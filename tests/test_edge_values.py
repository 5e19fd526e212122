"""Edge values of public numeric functions: each returns or raises a
library error promptly, and none hangs or warns on its way there."""

import contextlib
import math
import signal
import warnings

import numpy as np
import pytest

from cardsketch import bernoulli_estimate, kth_root_estimate, stable_log_variate, stable_median_log
from cardsketch.errors import EstimationNumericError, SketchError
from cardsketch.hashing import _ALPHA_MIN
from cardsketch.order_sketch import _damped
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


def test_a_newton_step_that_is_not_finite_is_refused():
    for step in (math.inf, -math.inf, math.nan):
        assert _damped(1.0, step, 0.0) is None
    # a finite step is halved until the result lies above the floor
    assert _damped(1.0, 4.0, 0.0) == 0.5
    assert _damped(1.0, -3.0, 0.0) == 4.0


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
