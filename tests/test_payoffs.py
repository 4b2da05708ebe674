import math
from fractions import Fraction

import pytest

from infomarket.analysis import graph_from_edges
from infomarket.dynamics import RetentionParams, retention
from infomarket.errors import NoCrossover
from infomarket.market import MarketParams, NewsType
from infomarket.payoffs import (
    ConsumerParams,
    CostSchedule,
    HarmPayoffParams,
    ProviderParams,
    compensation,
    consumer_payoff,
    crossover_harm,
    harm_payoff,
    provider_payoff,
)
from infomarket.scenario import DynamicsSection
from infomarket.voting import Ballot, droop_quota, fptp_winner


def test_provider_payoff_examples():
    costs = CostSchedule(fake_cost=1.0, true_cost=2.0)
    assert provider_payoff(ProviderParams(5, 0), NewsType.FAKE, costs) == 5
    assert provider_payoff(ProviderParams(5, 2), NewsType.FAKE, costs) == 3
    assert provider_payoff(ProviderParams(4, 1), NewsType.TRUE, costs) == 2


def test_consumer_payoff_examples():
    costs = CostSchedule(fake_disadvantage=2.0, true_disadvantage=0.5)
    assert consumer_payoff(ConsumerParams(3, 0), NewsType.FAKE, costs) == 3
    assert consumer_payoff(ConsumerParams(3, 1), NewsType.FAKE, costs) == 1
    assert consumer_payoff(ConsumerParams(3, 1), NewsType.TRUE, costs) == 2.5


def test_harm_payoff_default_constants():
    params = HarmPayoffParams()
    assert harm_payoff(params, NewsType.FAKE, 0) == 5
    assert harm_payoff(params, NewsType.FAKE, 1) == 3
    assert harm_payoff(params, NewsType.TRUE, 7) == 3


def test_harm_payoff_rejects_negative_harm():
    with pytest.raises(ValueError):
        harm_payoff(HarmPayoffParams(), NewsType.FAKE, -1)


def test_crossover_examples():
    assert crossover_harm(HarmPayoffParams(5, 2, 3)) == 1
    assert crossover_harm(HarmPayoffParams(3, 1, 3)) == 0
    with pytest.raises(NoCrossover):
        crossover_harm(HarmPayoffParams(2, 1, 3))


def test_crossover_equality_is_exact_for_rationals():
    # Exact arithmetic end to end: at the crossover the two payoffs coincide
    # with no tolerance involved.
    for a, b, c in [(5, 2, 3), (7, 3, 2), (11, 4, 11)]:
        params = HarmPayoffParams(Fraction(a), Fraction(b), Fraction(c))
        h = crossover_harm(params)
        assert harm_payoff(params, NewsType.FAKE, h) == harm_payoff(params, NewsType.TRUE, h)
        assert harm_payoff(params, NewsType.FAKE, h + 1) < params.truth_payoff
        if h > 0:
            assert harm_payoff(params, NewsType.FAKE, h - Fraction(1, 2)) > params.truth_payoff


def test_fake_payoff_strictly_decreasing_truth_constant():
    params = HarmPayoffParams()
    fake = [harm_payoff(params, NewsType.FAKE, h / 2) for h in range(20)]
    true = [harm_payoff(params, NewsType.TRUE, h / 2) for h in range(20)]
    assert all(b < a for a, b in zip(fake, fake[1:]))
    assert len(set(true)) == 1


def test_payoffs_are_affine_three_point_collinearity():
    # payoff(x) sampled at three cost points must be collinear.
    params = ProviderParams(base=4.0, cost_sensitivity=1.5)
    xs = (0.0, 1.0, 2.5)
    ys = [
        provider_payoff(params, NewsType.FAKE, CostSchedule(fake_cost=x)) for x in xs
    ]
    slope01 = (ys[1] - ys[0]) / (xs[1] - xs[0])
    slope02 = (ys[2] - ys[0]) / (xs[2] - xs[0])
    assert slope01 == pytest.approx(slope02, abs=1e-12)


def test_compensation_examples_and_symmetry():
    assert compensation(1, 1, 9.5, NewsType.TRUE) == 9.5
    assert compensation(2, 0.5, 10, NewsType.TRUE) == 10
    assert compensation(0, 3.2, 44, NewsType.FAKE) == 0
    assert compensation(1.5, 2.5, 4, NewsType.FAKE) == compensation(
        2.5, 1.5, 4, NewsType.FAKE
    )
    with pytest.raises(ValueError):
        compensation(-1, 1, 1, NewsType.FAKE)


def test_param_validation():
    with pytest.raises(ValueError):
        ProviderParams(1, -0.5)
    with pytest.raises(ValueError):
        ConsumerParams(1, -2)
    with pytest.raises(ValueError):
        CostSchedule(fake_cost=-1)
    with pytest.raises(ValueError):
        HarmPayoffParams(harm_penalty=0)


def test_bases_must_be_finite():
    with pytest.raises(ValueError, match=r"^base must be finite, got nan$"):
        ProviderParams(math.nan, 1.0)
    with pytest.raises(ValueError, match=r"^base must be finite, got inf$"):
        ConsumerParams(math.inf, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: fptp_winner([math.nan, 1.0]), "negative vote count for 0"),
    (lambda: fptp_winner([1.0, math.nan]), "negative vote count for 1"),
    (lambda: compensation(math.nan, 1, 1, NewsType.TRUE), "provider_coeff must be >= 0, got nan"),
    (lambda: compensation(1, math.nan, 1, NewsType.TRUE), "consumer_coeff must be >= 0, got nan"),
    (lambda: compensation(1, 1, math.nan, NewsType.TRUE), "quality must be >= 0, got nan"),
    (lambda: harm_payoff(HarmPayoffParams(), NewsType.FAKE, math.nan),
     "harm must be >= 0, got nan"),
    (lambda: retention(RetentionParams(), math.nan), "t must be >= 0, got nan"),
    # Values that no number compares with, and ints past the float range, end in the
    # same messages, not in Python's own TypeError or OverflowError text.
    (lambda: fptp_winner({"a": "x"}), "negative vote count for 'a'"),
    (lambda: harm_payoff(HarmPayoffParams(), NewsType.FAKE, "x"), "harm must be >= 0, got 'x'"),
    (lambda: retention(RetentionParams(), "x"), "t must be >= 0, got 'x'"),
    (lambda: graph_from_edges([("a", "b", "x")]),
     r"cost on edge \('a', 'b'\) must be finite and >= 0, got 'x'"),
    (lambda: MarketParams("x", 1, 1), "supply_slope must be finite and > 0, got 'x'"),
    (lambda: Ballot(("a",), "x"), "weight must be finite and >= 0, got 'x'"),
    (lambda: DynamicsSection(decay_grid=("x",)), "decay_grid must be finite and >= 0, got 'x'"),
    (lambda: MarketParams(10**400, 1, 1), f"supply_slope must be finite and > 0, got {10**400}"),
    (lambda: droop_quota(10**400, 1), f"valid_votes must be finite and >= 0, got {10**400}"),
    (lambda: graph_from_edges([("a", "b", 10**400)]),
     rf"cost on edge \('a', 'b'\) must be finite and >= 0, got {10**400}"),
], ids=["fptp-first", "fptp-last", "provider_coeff", "consumer_coeff", "quality", "harm", "t",
        "fptp-str", "harm-str", "t-str", "edge-cost-str", "MarketParams-str", "Ballot-str",
        "decay_grid-str", "MarketParams-huge-int", "droop_quota-huge-int", "edge-cost-huge-int"])
def test_nan_fails_the_nonnegative_input_checks(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
