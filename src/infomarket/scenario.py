"""Scenario files: one strict, line-oriented config binding all subsystems.

Format::

    # comment
    name = demo
    seed = 42

    [market.fake]
    supply_slope = 1
    demand_intercept = 10
    demand_slope = 1

    [matching]
    providers = p1 p2
    consumers = c1 c2
    rank.p1 = c1 > c2
    ...

Sections are optional but at least one must be present. Unknown sections and
unknown keys are rejected outright so typos fail loudly. Numbers serialize
with 12 significant digits, and parse(serialize(s)) == s.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import MalformedProfile, ParseError
from .market import MarketParams
from .matching import PreferenceProfile
from .payoffs import HarmPayoffParams

MARKET_KEYS = ("supply_slope", "demand_intercept", "demand_slope")


def format_number(x) -> str:
    """Canonical scalar rendering: 12 significant digits, no trailing noise."""
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.12g}"


@dataclass(frozen=True)
class MarketSection:
    fake: MarketParams
    true: MarketParams


@dataclass(frozen=True)
class GameSection:
    strategies: tuple[str, ...]
    rounds: int = 10
    harm_rule: str = "own"
    audience: float = 100.0
    seats: int = 2
    true_acceptance: float = 2.0
    fake_acceptance: float = 3.0


@dataclass(frozen=True)
class VotingSection:
    ballots: str
    seats: int
    tolerance: float = 1e-9


@dataclass(frozen=True)
class DynamicsSection:
    initial_retention: float = 1.0
    decay_grid: tuple[float, ...] = (0.1, 0.3, 0.5, 1.0)
    diminishing_scale: float = 1.0
    compounding_scale: float = 1.0
    compounding_exponent: float = 2.0
    horizon: int = 20


@dataclass(frozen=True)
class AnalysisSection:
    reliability_grid: tuple[float, ...] = ()
    graph: str | None = None
    source: str | None = None
    target: str | None = None
    changed_fake: MarketParams | None = None
    changed_true: MarketParams | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int = 0
    market: MarketSection | None = None
    payoffs: HarmPayoffParams | None = None
    matching: PreferenceProfile | None = None
    game: GameSection | None = None
    voting: VotingSection | None = None
    dynamics: DynamicsSection | None = None
    analysis: AnalysisSection | None = None


_SECTIONS = (
    "market.fake",
    "market.true",
    "payoffs",
    "matching",
    "game",
    "voting",
    "dynamics",
    "analysis",
    "analysis.changed.market.fake",
    "analysis.changed.market.true",
)


def _split_sections(text: str) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    preamble: dict[str, str] = {}
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    where = "preamble"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ParseError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = sections[name]
            where = f"[{name}]"
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value' in {where}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"line {lineno}: empty key in {where}")
        target = preamble if current is None else current
        if key in target:
            raise ParseError(f"line {lineno}: duplicate key {key!r} in {where}")
        target[key] = value
    return preamble, sections


def _float(section, key, value):
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"[{section}] {key}: expected a number, got {value!r}") from None


def _int(section, key, value):
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"[{section}] {key}: expected an integer, got {value!r}") from None


def _float_list(section, key, value):
    return tuple(_float(section, key, tok) for tok in value.split())


def _reject_unknown(section: str, data: dict, allowed) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ParseError(f"[{section}] unknown keys: {sorted(unknown)}")


def _require(section: str, data: dict, required) -> None:
    missing = [k for k in required if k not in data]
    if missing:
        raise ParseError(f"[{section}] missing keys: {missing}")


def _market_params(section: str, data: dict) -> MarketParams:
    _reject_unknown(section, data, MARKET_KEYS)
    _require(section, data, MARKET_KEYS)
    try:
        return MarketParams(
            supply_slope=_float(section, "supply_slope", data["supply_slope"]),
            demand_intercept=_float(section, "demand_intercept", data["demand_intercept"]),
            demand_slope=_float(section, "demand_slope", data["demand_slope"]),
        )
    except ValueError as exc:
        raise ParseError(f"[{section}] {exc}") from None


def _matching_section(data: dict) -> PreferenceProfile:
    _require("matching", data, ("providers", "consumers"))
    providers = tuple(data["providers"].split())
    consumers = tuple(data["consumers"].split())
    allowed = {"providers", "consumers"} | {f"rank.{a}" for a in providers + consumers}
    _reject_unknown("matching", data, allowed)
    # Each ranking entry becomes the declared id's own str object, so the
    # profile holds one str per id and set checks and lookups hit on identity.
    declared = {a: a for a in providers + consumers}.get
    ranks = {}
    for agent in providers + consumers:
        key = f"rank.{agent}"
        if key not in data:
            raise ParseError(f"[matching] missing ranking for {agent!r}")
        ranking = [tok.strip() for tok in data[key].split(">")]
        if "" in ranking:
            raise ParseError(f"[matching] {key}: empty id in ranking")
        ranks[agent] = tuple([declared(tok, tok) for tok in ranking])
    profile = PreferenceProfile(
        providers=providers,
        consumers=consumers,
        provider_prefs={p: ranks[p] for p in providers},
        consumer_prefs={c: ranks[c] for c in consumers},
    )
    try:
        profile.validate()
    except MalformedProfile as exc:
        raise ParseError(f"[matching] {exc}") from None
    return profile


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text. File-existence checks happen in load_scenario."""
    preamble, sections = _split_sections(text)
    _reject_unknown("scenario preamble", preamble, ("name", "seed"))
    if "name" not in preamble or not preamble["name"]:
        raise ParseError("scenario must set 'name' before any section")
    name = preamble["name"]
    seed = _int("preamble", "seed", preamble.get("seed", "0"))
    if seed < 0:
        raise ParseError(f"seed must be >= 0, got {seed}")

    market = None
    if "market.fake" in sections or "market.true" in sections:
        if not ("market.fake" in sections and "market.true" in sections):
            raise ParseError("sections [market.fake] and [market.true] come as a pair")
        market = MarketSection(
            fake=_market_params("market.fake", sections["market.fake"]),
            true=_market_params("market.true", sections["market.true"]),
        )

    payoffs = None
    if "payoffs" in sections:
        data = sections["payoffs"]
        _reject_unknown("payoffs", data, ("fake_base", "harm_penalty", "truth_payoff"))
        defaults = HarmPayoffParams()
        try:
            payoffs = HarmPayoffParams(
                fake_base=_float("payoffs", "fake_base",
                                 data.get("fake_base", format_number(defaults.fake_base))),
                harm_penalty=_float("payoffs", "harm_penalty",
                                    data.get("harm_penalty", format_number(defaults.harm_penalty))),
                truth_payoff=_float("payoffs", "truth_payoff",
                                    data.get("truth_payoff", format_number(defaults.truth_payoff))),
            )
        except ValueError as exc:
            raise ParseError(f"[payoffs] {exc}") from None

    matching = _matching_section(sections["matching"]) if "matching" in sections else None

    game = None
    if "game" in sections:
        data = sections["game"]
        _reject_unknown(
            "game",
            data,
            ("strategies", "rounds", "harm_rule", "audience", "seats",
             "true_acceptance", "fake_acceptance"),
        )
        _require("game", data, ("strategies",))
        harm_rule = data.get("harm_rule", "own")
        if harm_rule not in ("own", "any"):
            raise ParseError(f"[game] harm_rule must be 'own' or 'any', got {harm_rule!r}")
        game = GameSection(
            strategies=tuple(data["strategies"].split()),
            rounds=_int("game", "rounds", data.get("rounds", "10")),
            harm_rule=harm_rule,
            audience=_float("game", "audience", data.get("audience", "100")),
            seats=_int("game", "seats", data.get("seats", "2")),
            true_acceptance=_float("game", "true_acceptance", data.get("true_acceptance", "2")),
            fake_acceptance=_float("game", "fake_acceptance", data.get("fake_acceptance", "3")),
        )
        if game.rounds < 1:
            raise ParseError(f"[game] rounds must be >= 1, got {game.rounds}")
        if not (game.audience > 0 and math.isfinite(game.audience)):
            raise ParseError(f"[game] audience must be finite and > 0, got {game.audience}")
        if game.seats < 1:
            raise ParseError(f"[game] seats must be >= 1, got {game.seats}")

    voting = None
    if "voting" in sections:
        data = sections["voting"]
        _reject_unknown("voting", data, ("ballots", "seats", "tolerance"))
        _require("voting", data, ("ballots", "seats"))
        voting = VotingSection(
            ballots=data["ballots"],
            seats=_int("voting", "seats", data["seats"]),
            tolerance=_float("voting", "tolerance", data.get("tolerance", "1e-09")),
        )

    dynamics = None
    if "dynamics" in sections:
        data = sections["dynamics"]
        _reject_unknown(
            "dynamics",
            data,
            ("initial_retention", "decay_grid", "diminishing_scale",
             "compounding_scale", "compounding_exponent", "horizon"),
        )
        base = DynamicsSection()
        dynamics = DynamicsSection(
            initial_retention=_float("dynamics", "initial_retention",
                                     data.get("initial_retention", "1")),
            decay_grid=(_float_list("dynamics", "decay_grid", data["decay_grid"])
                        if "decay_grid" in data else base.decay_grid),
            diminishing_scale=_float("dynamics", "diminishing_scale",
                                     data.get("diminishing_scale", "1")),
            compounding_scale=_float("dynamics", "compounding_scale",
                                     data.get("compounding_scale", "1")),
            compounding_exponent=_float("dynamics", "compounding_exponent",
                                        data.get("compounding_exponent", "2")),
            horizon=_int("dynamics", "horizon", data.get("horizon", "20")),
        )
        if dynamics.horizon < 1:
            raise ParseError(f"[dynamics] horizon must be >= 1, got {dynamics.horizon}")

    analysis = None
    if "analysis" in sections or any(s.startswith("analysis.changed") for s in sections):
        data = sections.get("analysis", {})
        _reject_unknown("analysis", data, ("reliability_grid", "graph", "source", "target"))
        changed_fake = None
        changed_true = None
        if "analysis.changed.market.fake" in sections:
            changed_fake = _market_params(
                "analysis.changed.market.fake", sections["analysis.changed.market.fake"]
            )
        if "analysis.changed.market.true" in sections:
            changed_true = _market_params(
                "analysis.changed.market.true", sections["analysis.changed.market.true"]
            )
        analysis = AnalysisSection(
            reliability_grid=(_float_list("analysis", "reliability_grid",
                                          data["reliability_grid"])
                              if "reliability_grid" in data else ()),
            graph=data.get("graph"),
            source=data.get("source"),
            target=data.get("target"),
            changed_fake=changed_fake,
            changed_true=changed_true,
        )

    scenario = Scenario(
        name=name,
        seed=seed,
        market=market,
        payoffs=payoffs,
        matching=matching,
        game=game,
        voting=voting,
        dynamics=dynamics,
        analysis=analysis,
    )
    if all(
        getattr(scenario, field) is None
        for field in ("market", "payoffs", "matching", "game", "voting", "dynamics", "analysis")
    ):
        raise ParseError("scenario has no sections; at least one is required")
    return scenario


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file, checking that referenced files exist."""
    with open(path, encoding="utf-8") as f:
        scenario = parse_scenario(f.read())
    base = os.path.dirname(os.path.abspath(path))
    for ref in (
        scenario.voting.ballots if scenario.voting else None,
        scenario.analysis.graph if scenario.analysis else None,
    ):
        if ref is not None and not os.path.exists(os.path.join(base, ref)):
            raise ParseError(f"referenced file not found: {ref!r} (relative to {base})")
    return scenario


def resolve_path(scenario_path, ref: str) -> str:
    """Resolve a scenario-relative file reference."""
    return os.path.join(os.path.dirname(os.path.abspath(scenario_path)), ref)


def _market_lines(section: str, params: MarketParams) -> list[str]:
    return [
        f"[{section}]",
        f"supply_slope = {format_number(params.supply_slope)}",
        f"demand_intercept = {format_number(params.demand_intercept)}",
        f"demand_slope = {format_number(params.demand_slope)}",
        "",
    ]


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario in canonical section and key order."""
    lines = [f"name = {scenario.name}", f"seed = {scenario.seed}", ""]
    if scenario.market:
        lines += _market_lines("market.fake", scenario.market.fake)
        lines += _market_lines("market.true", scenario.market.true)
    if scenario.payoffs:
        p = scenario.payoffs
        lines += [
            "[payoffs]",
            f"fake_base = {format_number(p.fake_base)}",
            f"harm_penalty = {format_number(p.harm_penalty)}",
            f"truth_payoff = {format_number(p.truth_payoff)}",
            "",
        ]
    if scenario.matching:
        m = scenario.matching
        lines += [
            "[matching]",
            f"providers = {' '.join(m.providers)}",
            f"consumers = {' '.join(m.consumers)}",
        ]
        for p in m.providers:
            lines.append(f"rank.{p} = {' > '.join(m.provider_prefs[p])}")
        for c in m.consumers:
            lines.append(f"rank.{c} = {' > '.join(m.consumer_prefs[c])}")
        lines.append("")
    if scenario.game:
        g = scenario.game
        lines += [
            "[game]",
            f"strategies = {' '.join(g.strategies)}",
            f"rounds = {g.rounds}",
            f"harm_rule = {g.harm_rule}",
            f"audience = {format_number(g.audience)}",
            f"seats = {g.seats}",
            f"true_acceptance = {format_number(g.true_acceptance)}",
            f"fake_acceptance = {format_number(g.fake_acceptance)}",
            "",
        ]
    if scenario.voting:
        v = scenario.voting
        lines += [
            "[voting]",
            f"ballots = {v.ballots}",
            f"seats = {v.seats}",
            f"tolerance = {format_number(v.tolerance)}",
            "",
        ]
    if scenario.dynamics:
        d = scenario.dynamics
        lines += [
            "[dynamics]",
            f"initial_retention = {format_number(d.initial_retention)}",
            f"decay_grid = {' '.join(format_number(x) for x in d.decay_grid)}",
            f"diminishing_scale = {format_number(d.diminishing_scale)}",
            f"compounding_scale = {format_number(d.compounding_scale)}",
            f"compounding_exponent = {format_number(d.compounding_exponent)}",
            f"horizon = {d.horizon}",
            "",
        ]
    if scenario.analysis:
        a = scenario.analysis
        lines.append("[analysis]")
        if a.reliability_grid:
            lines.append(
                f"reliability_grid = {' '.join(format_number(x) for x in a.reliability_grid)}"
            )
        if a.graph is not None:
            lines.append(f"graph = {a.graph}")
        if a.source is not None:
            lines.append(f"source = {a.source}")
        if a.target is not None:
            lines.append(f"target = {a.target}")
        lines.append("")
        if a.changed_fake is not None:
            lines += _market_lines("analysis.changed.market.fake", a.changed_fake)
        if a.changed_true is not None:
            lines += _market_lines("analysis.changed.market.true", a.changed_true)
    return "\n".join(lines).rstrip("\n") + "\n"
