"""Payoff evaluation for providers and consumers of competing news types.

Provider and consumer payoffs are affine in the cost (or disadvantage) of the
chosen news type. The repeated-game payoff for deceptive provision decays
linearly with the provider's accumulated credibility harm while the truthful
payoff stays flat, so the two cross at a computable harm level. All functions
use plain arithmetic and accept exact number types (e.g. Fraction) unchanged.
"""

from ._record import record, require, rule
from .errors import NoCrossover
from .market import NewsType
from .scenario import HarmPayoffParams


@record
class ProviderParams:
    """Provider payoff coefficients: payoff = base - cost_sensitivity * cost."""

    base: float = rule()
    cost_sensitivity: float = rule(">=", 0)


@record
class ConsumerParams:
    """Consumer payoff coefficients: payoff = base - disadvantage_sensitivity * disadvantage."""

    base: float = rule()
    disadvantage_sensitivity: float = rule(">=", 0)


@record
class CostSchedule:
    """Per-news-type provision costs and consumer disadvantages."""

    fake_cost: float = rule(">=", 0, default=0.0)
    true_cost: float = rule(">=", 0, default=0.0)
    fake_disadvantage: float = rule(">=", 0, default=0.0)
    true_disadvantage: float = rule(">=", 0, default=0.0)

    def cost(self, kind: NewsType):
        return self.fake_cost if kind is NewsType.FAKE else self.true_cost

    def disadvantage(self, kind: NewsType):
        return self.fake_disadvantage if kind is NewsType.FAKE else self.true_disadvantage


def provider_payoff(params: ProviderParams, kind: NewsType, costs: CostSchedule):
    """Affine provider payoff for supplying the given news type."""
    return params.base - params.cost_sensitivity * costs.cost(kind)


def consumer_payoff(params: ConsumerParams, kind: NewsType, costs: CostSchedule):
    """Affine consumer payoff for consuming the given news type."""
    return params.base - params.disadvantage_sensitivity * costs.disadvantage(kind)


def harm_payoff(params: HarmPayoffParams, action: NewsType, harm):
    """Per-round payoff of an action given the player's accumulated harm.

    Deceptive provision pays ``fake_base - harm_penalty * harm``; truthful
    provision pays ``truth_payoff`` regardless of harm.
    """
    if not (type(harm) is int and 0 <= harm <= 1.7976931348623157e308):  # sys.float_info.max
        require("harm", harm, ">=", 0, finite=True)  # inline above: a game calls this per round
    if action is NewsType.FAKE:
        return params.fake_base - params.harm_penalty * harm
    return params.truth_payoff


def crossover_harm(params: HarmPayoffParams):
    """Harm level at which deception and truth pay the same.

    Solves ``fake_base - harm_penalty * h = truth_payoff``. At the returned
    level the two payoffs are equal exactly, not merely within tolerance.

    Raises:
        NoCrossover: deception already pays less than truth at zero harm.
    """
    if params.fake_base < params.truth_payoff:
        raise NoCrossover(
            f"fake_base {params.fake_base} < truth_payoff {params.truth_payoff}; "
            "deception is dominated from the start"
        )
    return (params.fake_base - params.truth_payoff) / params.harm_penalty


def compensation(provider_coeff, consumer_coeff, quality, kind: NewsType):
    """Compensation for a provider-consumer pairing in the given market.

    The product of the provider coefficient, the consumer coefficient, and
    the quality of the news type supplied. ``kind`` labels which market's
    quality figure is being passed in; it does not change the arithmetic.
    """
    require("provider_coeff", provider_coeff, ">=", 0)
    require("consumer_coeff", consumer_coeff, ">=", 0)
    require("quality", quality, ">=", 0)
    return provider_coeff * consumer_coeff * quality
