"""Deterministic simulations of an information market.

Competing truthful and deceptive news: linear market clearing with a cobweb
stability check, affine and harm-decaying payoffs, deferred-acceptance
matching between providers and consumers, an iterated provision game with an
audience-quota threshold, ranked-ballot tallying with fractional surplus
transfers, retention/utility curve families, and comparative market-health
sweeps. A small CLI binds scenario files to the subsystems and emits CSV.

The package imports lazily (PEP 562): a submodule is loaded the first time
it, or a name it exports, is looked up here, so ``from infomarket import
meek_count`` loads the vote count alone.
"""

import importlib

# The public names each submodule exports through the package.
_EXPORTS = {
    "analysis": (
        "HealthCurve", "MarketState", "SpreadGraph", "comparative_sweep",
        "graph_from_edges", "market_health", "min_cost_spread_path",
        "reliability_marginal_contribution",
    ),
    "dynamics": (
        "CurveFamily", "RetentionParams", "UtilityCurve", "check_increment_profile",
        "compounding_curve", "diminishing_curve", "info_marginal_contribution",
        "retention", "utility",
    ),
    "errors": (),
    "game": (
        "AcceptanceRule", "Action", "GameState", "StageGame", "Strategy",
        "TournamentRow", "droop_acceptance_reached", "max_compensation",
        "nash_equilibria", "play_iterated", "run_tournament", "strategy_by_name",
    ),
    "market": (
        "Equilibrium", "NewsType", "Stability", "StabilityReport",
        "equilibrium_closed_form", "equilibrium_numeric", "stability_cobweb",
    ),
    "matching": (
        "Matching", "PreferenceProfile", "SegmentLabel", "gale_shapley", "is_stable",
        "marginal_contribution", "rankings_from_scores", "segment", "segment_news",
    ),
    "payoffs": (
        "ConsumerParams", "CostSchedule", "ProviderParams", "compensation",
        "consumer_payoff", "crossover_harm", "harm_payoff", "provider_payoff",
    ),
    "scenario": ("HarmPayoffParams", "MarketParams", "MarketScenario", "Scenario",
                 "load_scenario", "parse_scenario", "serialize_scenario"),
    "voting": (
        "Ballot", "CountRound", "ElectionResult", "droop_quota", "fptp_winner",
        "meek_count", "parse_ballots",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SUBMODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
