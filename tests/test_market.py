import random

import pytest

from infomarket.errors import InfeasibleEquilibrium, NonMonotone, NoRoot
from infomarket.market import (
    Equilibrium,
    MarketParams,
    Stability,
    equilibrium_closed_form,
    equilibrium_numeric,
    stability_cobweb,
)

# Frozen from the bisection route: roots of supply - demand on [0, b/c].
CASES_CLOSED = [
    ((1, 10, 1), 5.0, 5.0),
    ((2, 12, 1), 4.0, 8.0),
]
# Root of p**2 + p - 10 on [0, 10]: (-1 + sqrt(41)) / 2.
NONLINEAR_PRICE = 2.7015621187164245


class TestClosedForm:
    @pytest.mark.parametrize("coeffs,price,quantity", CASES_CLOSED)
    def test_derived_examples(self, coeffs, price, quantity):
        eq = equilibrium_closed_form(MarketParams(*coeffs))
        assert eq.price == pytest.approx(price, abs=1e-12)
        assert eq.quantity == pytest.approx(quantity, abs=1e-12)

    def test_quantity_equals_demand(self):
        params = MarketParams(1.7, 23.0, 0.4)
        eq = equilibrium_closed_form(params)
        assert abs(eq.quantity - params.demand(eq.price)) <= 1e-12

    @pytest.mark.parametrize("b", [0.0, -3.0])
    def test_infeasible(self, b):
        with pytest.raises(InfeasibleEquilibrium):
            equilibrium_closed_form(MarketParams(1, b, 1))

    @pytest.mark.parametrize("a,c", [(0, 1), (-1, 1), (1, 0), (1, -2)])
    def test_slope_validation(self, a, c):
        with pytest.raises(ValueError):
            MarketParams(a, 5, c)


    def test_negative_equilibrium_rejected(self):
        with pytest.raises(ValueError, match=r"^equilibrium must be nonnegative, got "):
            Equilibrium(-1, 0)


class TestNumeric:
    def test_linear_cross_check(self):
        eq = equilibrium_numeric(lambda p: p, lambda p: 10 - p, (0.0, 10.0))
        assert eq.price == pytest.approx(5.0, abs=1e-9)

    def test_identical_constant_curves(self):
        eq = equilibrium_numeric(lambda p: 4.0, lambda p: 4.0, (0.0, 10.0))
        assert eq.price == 0.0
        assert eq.quantity == 4.0

    def test_no_sign_change(self):
        with pytest.raises(NoRoot):
            equilibrium_numeric(lambda p: p + 100, lambda p: 1.0, (0.0, 10.0))

    def test_nonlinear(self):
        eq = equilibrium_numeric(lambda p: p * p, lambda p: 10 - p, (0.0, 10.0))
        assert eq.price == pytest.approx(NONLINEAR_PRICE, abs=1e-8)
        assert abs(eq.price**2 - (10 - eq.price)) <= 1e-9 * (1 + abs(eq.quantity))

    def test_non_monotone_supply(self):
        with pytest.raises(NonMonotone):
            equilibrium_numeric(lambda p: -p, lambda p: 10 - p, (0.0, 10.0))

    def test_non_monotone_demand(self):
        with pytest.raises(NonMonotone):
            equilibrium_numeric(lambda p: p, lambda p: p + 1, (0.0, 10.0))

    def test_agrees_with_closed_form_randomized(self):
        rng = random.Random(20240917)
        for _ in range(500):
            a = rng.uniform(0.1, 10)
            c = rng.uniform(0.1, 10)
            b = rng.uniform(0.1, 100)
            closed = equilibrium_closed_form(MarketParams(a, b, c))
            numeric = equilibrium_numeric(
                lambda p: a * p, lambda p: b - c * p, (0.0, b / c)
            )
            assert abs(closed.price - numeric.price) <= 1e-9

    def test_root_at_the_upper_end(self):
        eq = equilibrium_numeric(lambda p: p, lambda p: 10 - p, (0.0, 5.0))
        assert (eq.price, eq.quantity) == (5.0, 5.0)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            equilibrium_numeric(lambda p: p, lambda p: 1 - p, (3.0, 1.0))


class TestCobweb:
    def test_stable_converges(self):
        report = stability_cobweb(MarketParams(1, 10, 2), 1.0, 60)
        assert report.classification is Stability.STABLE
        assert report.iterates[-1] == pytest.approx(10 / 3, abs=1e-6)
        assert len(report.iterates) == 60

    def test_neutral_oscillates(self):
        report = stability_cobweb(MarketParams(1, 10, 1), 4.0, 6)
        assert report.classification is Stability.NEUTRAL
        assert report.iterates == [6.0, 4.0, 6.0, 4.0, 6.0, 4.0]

    def test_unstable_diverges(self):
        report = stability_cobweb(MarketParams(3, 10, 1), 2.6, 10)
        assert report.classification is Stability.UNSTABLE
        star = 10 / 4
        gaps = [abs(p - star) for p in report.iterates]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_steps_validation(self):
        with pytest.raises(ValueError):
            stability_cobweb(MarketParams(1, 10, 2), 1.0, 0)

    def test_classification_scale_invariant(self):
        rng = random.Random(7)
        for _ in range(200):
            a = rng.uniform(0.1, 5)
            c = rng.uniform(0.1, 5)
            lam = rng.uniform(0.25, 4)
            base = stability_cobweb(MarketParams(a, 10, c), 1.0, 3)
            scaled = stability_cobweb(MarketParams(lam * a, 10, lam * c), 1.0, 3)
            assert base.classification is scaled.classification


class TestProperties:
    def test_market_clearing_residual(self):
        rng = random.Random(99)
        for _ in range(300):
            params = MarketParams(
                rng.uniform(0.1, 10), rng.uniform(0.1, 100), rng.uniform(0.1, 10)
            )
            eq = equilibrium_closed_form(params)
            assert abs(params.supply(eq.price) - params.demand(eq.price)) <= 1e-9 * (
                1 + abs(eq.quantity)
            )

    def test_demand_intercept_monotonicity(self):
        rng = random.Random(5)
        for _ in range(200):
            a = rng.uniform(0.1, 10)
            c = rng.uniform(0.1, 10)
            b = rng.uniform(0.1, 50)
            lower = equilibrium_closed_form(MarketParams(a, b, c))
            higher = equilibrium_closed_form(MarketParams(a, b + rng.uniform(0.1, 50), c))
            assert higher.price > lower.price
            assert higher.quantity > lower.quantity
