import math
import random
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest

from oracles import utility_running_fold
from infomarket.dynamics import (
    CurveFamily,
    RetentionParams,
    check_increment_profile,
    compounding_curve,
    diminishing_curve,
    increments,
    info_marginal_contribution,
    retention,
    utility,
)


class TestRetention:
    def test_initial_condition(self):
        for initial in (0.2, 0.9, 1.0):
            assert retention(RetentionParams(initial, 0.7), 0) == initial

    def test_no_decay(self):
        params = RetentionParams(0.8, 0.0)
        assert retention(params, 123.0) == 0.8

    def test_scalar_example(self):
        assert retention(RetentionParams(1.0, 0.5), 2) == pytest.approx(
            math.exp(-1), abs=1e-12
        )

    def test_nonincreasing_in_time_and_decay(self):
        ts = [0.5 * i for i in range(30)]
        for decay in (0.1, 0.5, 2.0):
            series = [retention(RetentionParams(1.0, decay), t) for t in ts]
            assert all(b <= a for a, b in zip(series, series[1:]))
        for t in (0.5, 2.0, 7.0):
            by_decay = [retention(RetentionParams(1.0, g), t) for g in (0.1, 0.3, 0.5, 1.0)]
            assert all(b <= a for a, b in zip(by_decay, by_decay[1:]))

    def test_semigroup_identity(self):
        params = RetentionParams(0.75, 0.4)
        for i in range(1, 100):
            t = 0.07 * i
            doubled = retention(params, 2 * t)
            composed = retention(params, t) ** 2 / params.initial
            assert abs(doubled - composed) <= 1e-12

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            retention(RetentionParams(1.0, 0.5), -1)
        with pytest.raises(ValueError):
            RetentionParams(1.5, 0.5)
        with pytest.raises(ValueError):
            RetentionParams(0.5, -0.1)


class TestUtility:
    def test_zero_pieces(self):
        assert utility(diminishing_curve(), 0) == 0
        assert utility(compounding_curve(), 0) == 0

    def test_closed_form_examples(self):
        assert utility(diminishing_curve(1.0), 2) == 1.5
        assert utility(compounding_curve(1.0, 2.0), 3) == 9

    def test_marginal_examples(self):
        assert info_marginal_contribution(diminishing_curve(1.0), 0) == 1
        assert info_marginal_contribution(compounding_curve(1.0, 2.0), 2) == 5
        assert info_marginal_contribution(diminishing_curve(0.0), 4) == 0
        assert info_marginal_contribution(compounding_curve(0.0), 4) == 0

    def test_integer_domain(self):
        with pytest.raises(ValueError):
            utility(diminishing_curve(), 1.5)
        with pytest.raises(ValueError):
            utility(diminishing_curve(), -1)

    def test_scale_homogeneity_exact(self):
        lam = Fraction(7, 3)
        unit = diminishing_curve(Fraction(1))
        scaled = diminishing_curve(lam)
        for k in (0, 1, 5, 23):
            assert utility(scaled, k) == lam * utility(unit, k)
        unit_c = compounding_curve(Fraction(1), 2)
        scaled_c = compounding_curve(lam, 2)
        for k in (0, 2, 9):
            assert utility(scaled_c, k) == lam * utility(unit_c, k)

    def test_telescoping_is_exact_for_rationals(self):
        for curve in (diminishing_curve(Fraction(3, 2)), compounding_curve(Fraction(2), 3)):
            n = 40
            total = sum(info_marginal_contribution(curve, k) for k in range(n))
            assert total == utility(curve, n)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            diminishing_curve(-1.0)
        with pytest.raises(ValueError):
            compounding_curve(1.0, 1.0)


class TestIncrementProfile:
    def test_default_curves_pass(self):
        assert check_increment_profile(diminishing_curve(), 100).passed
        assert check_increment_profile(compounding_curve(), 100).passed

    def test_strictness_over_long_horizon(self):
        n = 10_000
        dim = list(islice(increments(diminishing_curve()), n))
        assert all(b < a for a, b in zip(dim, dim[1:]))
        comp = list(islice(increments(compounding_curve()), n))
        assert all(b > a for a, b in zip(comp, comp[1:]))

    def test_constant_curve_passes_both_profiles(self):
        # Zero scale flattens either family; weak monotonicity accepts both.
        assert check_increment_profile(diminishing_curve(0.0), 50).passed
        assert check_increment_profile(
            compounding_curve(0.0, 2.0), 50
        ).passed

    def test_violation_reports_first_bad_index(self):
        # A curve whose increments rise despite claiming diminishing returns:
        # negative scale flips the harmonic decrements into increments.
        impostor = SimpleNamespace(
            family=CurveFamily.DIMINISHING, scale=-1.0, exponent=2.0
        )
        verdict = check_increment_profile(impostor, 50)
        assert not verdict.passed
        assert verdict.violation_at == 1

    def test_falling_compounding_increments_fail(self):
        # Negative scale turns the rising power increments into falling ones.
        impostor = SimpleNamespace(family=CurveFamily.COMPOUNDING, scale=-1.0, exponent=2.0)
        verdict = check_increment_profile(impostor, 50)
        assert (verdict.passed, verdict.violation_at) == (False, 1)

    def test_horizon_validation(self):
        with pytest.raises(ValueError):
            check_increment_profile(diminishing_curve(), 1)


@pytest.mark.parametrize("scale, k_max", [
    (1.0, 3000), (0.1, 3000), (3.7, 3000), (0.0, 50), (1e-300, 200),
    (Fraction(1), 1000), (Fraction(7, 3), 1000),
])
def test_diminishing_utility_matches_running_fold(scale, k_max):
    """``utility`` and ``info_marginal_contribution`` bit for bit against one
    running fold, at every k up to 200 and at seeded draws up to ``k_max``."""
    expected = utility_running_fold(scale, k_max)
    curve = diminishing_curve(scale)
    rng = random.Random(f"utility-{scale!r}")
    ks = sorted({*range(min(k_max, 200)), k_max - 1, *rng.sample(range(k_max), 10)})
    for k in ks:
        assert repr(utility(curve, k)) == repr(expected[k]), k
        assert repr(info_marginal_contribution(curve, k)) == repr(expected[k + 1] - expected[k]), k
