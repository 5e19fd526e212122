"""Closed-form constants, their independent summation oracles, and bounds."""

import contextlib
import math
import signal
import time

import numpy as np
import pytest

from cardsketch.inference import (
    are_bernoulli,
    chernoff_bounds,
    fisher_info_geometric,
    geometric_register_bits,
    optimal_lambda,
    psi_infinity,
    required_m,
    sketch_storage_bits,
)


class TestAreBernoulli:
    def test_small_lambda_limit(self):
        assert are_bernoulli(1e-6) == pytest.approx(1e-6, rel=1e-3)

    def test_value_at_optimum(self):
        lam0 = optimal_lambda()
        assert are_bernoulli(lam0) == pytest.approx(0.648, abs=1e-3)

    def test_prior_mismatch_band(self):
        # c in (0.3 c0, 4.3 c0) with p = 1/c0 keeps efficiency above 25%
        assert are_bernoulli(0.3) >= 0.25
        assert are_bernoulli(4.3) >= 0.25

    def test_unimodal_with_max_at_lambda0(self):
        lam0 = optimal_lambda()
        grid = np.linspace(0.01, 10.0, 2000)
        vals = np.array([are_bernoulli(l) for l in grid])
        peak = grid[vals.argmax()]
        assert abs(peak - lam0) < 0.01
        # single sign change of the difference sequence
        diffs = np.sign(np.diff(vals))
        assert np.sum(np.diff(diffs) != 0) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            are_bernoulli(0.0)


class TestOptimalLambda:
    def test_fixed_point_residual(self):
        lam0 = optimal_lambda()
        assert abs(lam0 - 2.0 * (1.0 - math.exp(-lam0))) < 1e-12

    def test_value(self):
        assert optimal_lambda() == pytest.approx(1.594, abs=1e-3)

    def test_p_max_substitution(self):
        p = -math.expm1(-optimal_lambda() / 1e6)
        assert p == pytest.approx(1.594e-6, rel=1e-3)


class TestPsiInfinity:
    def test_half(self):
        assert psi_infinity(0.5) == pytest.approx(0.9304, abs=1e-4)

    def test_ten_elevenths(self):
        assert psi_infinity(10.0 / 11.0) == pytest.approx(0.9985, abs=1e-4)

    def test_continuous_limit(self):
        assert psi_infinity(0.999) > 0.999

    def test_below_one(self):
        for q in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
            assert psi_infinity(q) < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            psi_infinity(1.0)


def _fisher_info_bruteforce(c, q, terms=10**4):
    """Direct summation oracle over the slot-value support."""
    total = 0.0
    for y in range(1, terms + 1):
        a_val = 1.0 - q**y
        b_val = 1.0 - q ** (y - 1)
        num = math.log(a_val) * a_val**c - (math.log(b_val) * b_val**c if b_val > 0 else 0.0)
        den = a_val**c - b_val**c
        if den > 0:
            total += num * num / den
    return total


class TestFisherInfoGeometric:
    def test_against_bruteforce_c1(self):
        assert fisher_info_geometric(1, 0.5) == pytest.approx(
            _fisher_info_bruteforce(1, 0.5), rel=1e-10)

    def test_against_bruteforce_c40(self):
        assert fisher_info_geometric(40, 0.7) == pytest.approx(
            _fisher_info_bruteforce(40, 0.7), rel=1e-9)

    def test_converges_to_psi_infinity(self):
        c = 2**10
        assert c * c * fisher_info_geometric(c, 0.5) == pytest.approx(
            psi_infinity(0.5), abs=1e-3)

    def test_scaling_sweep(self):
        for exp in range(4, 21, 4):
            c = 2**exp
            val = c * c * fisher_info_geometric(c, 0.5)
            assert 0.9 <= val <= 1.0


class TestChernoffBounds:
    def test_constants_tend_to_two(self):
        b = chernoff_bounds(1e-4, 1)
        assert abs(b.c1 - 2.0) < 1e-3
        assert abs(b.c2 - 2.0) < 1e-3

    def test_c1_at_tenth(self):
        assert chernoff_bounds(0.1, 64).c1 == pytest.approx(2.272, abs=1e-3)

    def test_bounds_in_unit_interval(self):
        # extreme eps legitimately underflows a bound to 0.0
        for eps in (0.01, 0.1, 0.5, 0.9):
            b = chernoff_bounds(eps, 128)
            assert 0.0 <= b.upper <= 1.0 and 0.0 <= b.lower <= 1.0

    def test_formula_shape(self):
        b = chernoff_bounds(0.2, 100)
        assert b.upper == pytest.approx(math.exp(-100 * 0.04 / b.c1))
        assert b.lower == pytest.approx(math.exp(-100 * 0.04 / b.c2))

    def test_domain(self):
        with pytest.raises(ValueError):
            chernoff_bounds(0.0, 10)
        with pytest.raises(ValueError):
            chernoff_bounds(1.0, 10)


class TestRequiredM:
    def test_monotone_in_epsilon(self):
        assert required_m(0.05, 0.05) >= required_m(0.1, 0.05)

    def test_delta_one_is_vacuous(self):
        assert required_m(0.1, 1.0) == 1

    def test_is_minimal(self):
        m = required_m(0.1, 0.05)
        b = chernoff_bounds(0.1, m)
        assert max(b.upper, b.lower) <= 0.05
        if m > 1:
            b_prev = chernoff_bounds(0.1, m - 1)
            assert max(b_prev.upper, b_prev.lower) > 0.05

    def test_storage_figure(self):
        m, bits = sketch_storage_bits(0.1, 0.05, c=1e6, q=10.0 / 11.0)
        assert bits == m * geometric_register_bits(1e6, 10.0 / 11.0)
        assert bits > 0


class TestOracleCrossChecks:
    """Closed forms against independent numerics, to 1e-6 relative."""

    def test_are_bernoulli_from_fisher_ratio(self):
        # ARE = c^2 I_bern(c) / m at p = lambda/c, large c, via the exact
        # Bernoulli information formula rather than the limit expression
        lam, c = 1.3, 10**7
        q = 1.0 - lam / c
        info = q**c * math.log(q) ** 2 / (1.0 - q**c)  # per stream
        assert c * c * info == pytest.approx(are_bernoulli(lam), rel=1e-6)

    def test_psi_matches_quadrature(self):
        # continuum analogue: substituting t = q^k turns the sum into
        # sum f(k); Riemann refinement over fractional offsets must bracket
        # the lattice sum within the oscillation envelope
        q = 0.5
        logq = math.log(q)

        def term(x):
            a = math.exp((x - 1) * logq)
            b = math.exp(x * logq)
            if a > 700.0 or math.exp(a) == math.exp(b):
                return 0.0  # double-exponentially small either way
            return math.exp(2 * x * logq + 2 * math.log(1 / q - 1)) / (
                math.exp(a) - math.exp(b))

        offsets = np.linspace(0.0, 1.0, 21)[:-1]
        sums = [sum(term(k + o) for k in range(-60, 60)) for o in offsets]
        assert min(sums) <= psi_infinity(q) <= max(sums)
        assert psi_infinity(q) == pytest.approx(np.mean(sums), rel=2e-3)


@contextlib.contextmanager
def _within(seconds: float):
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


def _seconds(f, *args) -> float:
    start = time.perf_counter()
    f(*args)
    return time.perf_counter() - start


class TestNearOne:
    """q up to the largest the geometric sketch admits, 1 - 2**-26: the
    sums must not stop short, and each call must end promptly."""

    Q_NEAR_ONE = [math.nextafter(0.999, 1.0), 0.9995, 0.9999, 1 - 1e-5, 1 - 1e-6, 1 - 2.0**-26]

    def test_psi_infinity_is_its_continuum_limit_above_0999(self):
        for q in self.Q_NEAR_ONE:
            psi_infinity.cache_clear()
            with _within(2.0):
                psi = psi_infinity(q)
            # the truncated k-sum gave 0.626 at 1 - 1e-5 and 0.0735 at 1 - 1e-6
            assert abs(psi - (1.0 - math.log(q) ** 2 / 6.0)) < 1e-9, q
            assert psi <= 1.0

    def test_psi_infinity_rises_to_one_across_the_switch(self):
        grid = [0.99, 0.995, 0.999] + self.Q_NEAR_ONE
        values = [psi_infinity(q) for q in grid]
        assert values == sorted(values)

    def test_psi_infinity_keeps_its_sums_up_to_0999(self):
        # the values of the term-by-term sum, bit for bit
        assert psi_infinity(0.5) == 0.9304609832801632
        assert psi_infinity(10.0 / 11.0) == 0.9984907790234475
        assert psi_infinity(0.99) == 0.9999831657199447
        assert psi_infinity(0.999) == 0.9999998331660831

    def test_fisher_info_sums_past_the_score_sign_change(self):
        # at c = 10, q = 0.9999 a term near the score's sign change used to
        # stop the sum at c**2 I = 0.736
        with _within(2.0):
            info = fisher_info_geometric(10, 0.9999)
        assert 100 * info == pytest.approx(psi_infinity(0.9999), abs=1e-6)

    @pytest.mark.parametrize("c, q", [(10, 1 - 2.0**-26), (10, 1 - 1e-6), (1e150, 0.9999)])
    def test_fisher_info_refuses_a_sum_of_more_than_a_million_terms(self, c, q):
        with _within(2.0), pytest.raises(ValueError, match="too close to 1"):
            fisher_info_geometric(c, q)

    # (c, q): small sums, sums that end by underflow, and the longest ones
    # the refusal bound lets through
    FISHER_GRID = [(c, q) for c in (1, 3, 40, 1e6, 1e150) for q in (1e-150, 0.001, 0.5, 0.9, 0.99)]
    FISHER_GRID += [(1, 1 - 4.1e-5), (1e150, 0.999), (10, 0.9999), (1e154, 0.5)]

    @staticmethod
    def _fisher_reference(c, q):
        """The terms of fisher_info_geometric, added one at a time in a
        plain loop, with its stop rule."""
        logq = math.log(q)
        cross = math.log(-math.expm1(-1.0 / c)) / logq
        total, y = 0.0, 1
        while y < 10**6:
            a = math.log1p(-math.exp(y * logq))
            if y == 1:
                term = a * a * math.exp(c * a)
            else:
                b = math.log1p(-math.exp((y - 1) * logq))
                if b == 0.0:
                    break
                d = c * (b - a)
                num = a - b * math.exp(d)
                term = math.exp(c * a) * num * num / -math.expm1(d)
            total += term
            if y > 2 and term < 1e-15 * total and y > cross + 2:
                break
            y += 1
        return total

    @pytest.mark.parametrize("c, q", FISHER_GRID)
    def test_fisher_info_matches_a_plain_loop(self, c, q):
        with _within(2.0):
            info = fisher_info_geometric(c, q)
        want = self._fisher_reference(c, q)
        assert abs(info - want) <= 1e-12 * want, (info, want)

    @pytest.mark.parametrize("c, q", [(1, 1 - 4.1e-5), (1e150, 0.999)])
    def test_fisher_info_of_a_long_sum_is_prompt(self, c, q):
        # some 6e5 terms: 0.3-0.6 s added one at a time in Python
        fisher_info_geometric(c, q)
        t = min(_seconds(fisher_info_geometric, c, q) for _ in range(3))
        assert t < 0.05

    def test_geometric_sketch_standard_error_near_q_one(self):
        from cardsketch import GeometricMaxSketch
        sk = GeometricMaxSketch(128, 1 - 1e-6, seed=1)
        sk.add_batch(np.arange(20000, dtype=np.uint64))
        with _within(2.0):
            est = sk.estimate()
        # 0.326 with the truncated psi_infinity
        assert est.std_error / est.c_hat == pytest.approx(1 / math.sqrt(128), rel=0.01)


class TestDoubleRangeBounds:
    """Each function refuses an argument its arithmetic cannot carry, at
    the bound its message names, and takes the next double inside."""

    def test_psi_infinity_names_its_overflow_bound(self):
        q_out = 7.4583407312000825e-155
        for q in (q_out, 1e-320):
            with pytest.raises(OverflowError, match="q must lie at or above about 7.46e-155"):
                psi_infinity(q)
        assert math.isfinite(psi_infinity(math.nextafter(q_out, 1.0)))

    def test_are_bernoulli_past_the_overflow_of_e_to_the_lambda(self):
        top = math.log(1.7976931348623157e308)
        below, above = are_bernoulli(top), are_bernoulli(math.nextafter(top, math.inf))
        assert below > 0.0 and above == pytest.approx(below, rel=1e-12)
        assert are_bernoulli(710.0) == pytest.approx(710.0**2 * math.exp(-710.0), rel=1e-12)
        for lam in (1e6, 1e308, math.inf):
            assert are_bernoulli(lam) == 0.0
        with pytest.raises(ValueError, match="lambda must be positive"):
            are_bernoulli(math.nan)

    def test_chernoff_bounds_keep_half_the_digits(self):
        b = chernoff_bounds(2.0**-26, 1)
        assert b.c1 == pytest.approx(2.0, rel=1e-7) and b.c2 == pytest.approx(2.0, rel=1e-7)
        for eps in (math.nextafter(2.0**-26, 0.0), 5e-16, 1e-300):
            with pytest.raises(ValueError, match=r"epsilon must lie at or above 2\*\*-26"):
                chernoff_bounds(eps, 1)
            with pytest.raises(ValueError, match=r"epsilon must lie at or above 2\*\*-26"):
                required_m(eps, 0.5)
        with pytest.raises(ValueError, match="m must be >= 1"):
            chernoff_bounds(0.1, math.nan)

    def test_required_m_takes_every_normal_delta(self):
        smallest = 2.0**-1022
        m = required_m(0.1, smallest)
        assert max(chernoff_bounds(0.1, m).upper, chernoff_bounds(0.1, m).lower) <= smallest
        assert required_m(2.0**-26, smallest) > 2**62
        for delta in (math.nextafter(smallest, 0.0), 1e-320, 5e-324):
            with pytest.raises(ValueError, match=r"delta must lie at or above 2\*\*-1022"):
                required_m(0.1, delta)

    def test_register_bits_need_a_finite_c(self):
        assert geometric_register_bits(1.7976931348623157e308, 0.5) == 12
        with pytest.raises(ValueError, match="c must be finite, got inf"):
            geometric_register_bits(math.inf, 0.5)
        with pytest.raises(ValueError, match="c must be >= 1"):
            geometric_register_bits(math.nan, 0.5)
