import inspect
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from infomarket._record import fields
from infomarket.analysis import MarketState
from infomarket.dynamics import (
    CurveFamily,
    RetentionParams,
    UtilityCurve,
    compounding_curve,
    diminishing_curve,
)
from infomarket.errors import MalformedProfile, ParseError
from infomarket.game import AcceptanceRule, run_tournament
from infomarket.matching import PreferenceProfile
from infomarket.scenario import (
    AnalysisSection,
    DynamicsSection,
    GameSection,
    Scenario,
    VotingSection,
    _keys,
    format_number,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from infomarket.voting import meek_count

FULL_TEXT = """\
# kitchen sink
name = demo
seed = 9

[market.fake]
supply_slope = 1
demand_intercept = 10
demand_slope = 1

[market.true]
supply_slope = 1
demand_intercept = 8
demand_slope = 1

[payoffs]
fake_base = 5
harm_penalty = 2
truth_payoff = 3

[matching]
providers = p1 p2
consumers = c1 c2
rank.p1 = c1 > c2
rank.p2 = c2 > c1
rank.c1 = p1 > p2
rank.c2 = p2 > p1

[game]
strategies = AlwaysTrue TitForTat
rounds = 6
harm_rule = any
audience = 50
seats = 1
true_acceptance = 2
fake_acceptance = 3

[voting]
ballots = votes.txt
seats = 2
tolerance = 1e-09

[dynamics]
initial_retention = 0.9
decay_grid = 0.1 0.5
diminishing_scale = 1
compounding_scale = 2
compounding_exponent = 1.5
horizon = 5

[analysis]
reliability_grid = 0 0.5 1
graph = net.txt
source = a
target = b

[analysis.changed.market.fake]
supply_slope = 0.5
demand_intercept = 10
demand_slope = 1
"""


def test_full_parse():
    s = parse_scenario(FULL_TEXT)
    assert s.name == "demo" and s.seed == 9
    assert s.market.fake.demand_intercept == 10
    assert s.payoffs.harm_penalty == 2
    assert s.matching.providers == ("p1", "p2")
    assert s.game.strategies == ("AlwaysTrue", "TitForTat")
    assert s.game.harm_rule == "any"
    assert s.voting.ballots == "votes.txt"
    assert s.dynamics.decay_grid == (0.1, 0.5)
    assert s.analysis.reliability_grid == (0.0, 0.5, 1.0)
    assert s.analysis.changed_fake.supply_slope == 0.5
    assert s.analysis.changed_true is None


def test_round_trip():
    first = parse_scenario(FULL_TEXT)
    text = serialize_scenario(first)
    second = parse_scenario(text)
    assert first == second
    # Serialization itself is stable.
    assert serialize_scenario(second) == text


def test_minimal_scenario_with_defaults():
    s = parse_scenario("name = tiny\n[payoffs]\nfake_base = 4\n")
    assert s.seed == 0
    assert s.payoffs.fake_base == 4
    assert s.payoffs.harm_penalty == 2  # default preserved
    assert s.market is None


def test_name_required():
    with pytest.raises(ParseError):
        parse_scenario("[payoffs]\nfake_base = 4\n")


@pytest.mark.parametrize("text, message", [
    ("name = x\n= 5\n[payoffs]\n", "line 2: empty key in preamble"),
    ("name = x\n[payoffs]\n = 5\n", "line 3: empty key in [payoffs]"),
])
def test_empty_key_rejected(text, message):
    with pytest.raises(ParseError, match=rf"^{re.escape(message)}$"):
        parse_scenario(text)


def test_at_least_one_section():
    with pytest.raises(ParseError):
        parse_scenario("name = empty\nseed = 1\n")


def test_unknown_section_rejected():
    with pytest.raises(ParseError):
        parse_scenario("name = x\n[marketing]\nbudget = 4\n")


def test_unknown_key_rejected():
    with pytest.raises(ParseError):
        parse_scenario(
            "name = x\n[market.fake]\nsupply_slope = 1\ndemand_intercept = 1\n"
            "demand_slope = 1\ncolor = blue\n"
            "\n[market.true]\nsupply_slope = 1\ndemand_intercept = 1\ndemand_slope = 1\n"
        )


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_scenario("name = x\nname = y\n[payoffs]\n")


def test_market_sections_come_paired():
    with pytest.raises(ParseError):
        parse_scenario(
            "name = x\n[market.fake]\nsupply_slope = 1\n"
            "demand_intercept = 1\ndemand_slope = 1\n"
        )


def test_missing_ranking_rejected():
    with pytest.raises(ParseError):
        parse_scenario(
            "name = x\n[matching]\nproviders = p1\nconsumers = c1\nrank.p1 = c1\n"
        )


def test_invalid_ranking_rejected():
    with pytest.raises(ParseError):
        parse_scenario(
            "name = x\n[matching]\nproviders = p1\nconsumers = c1 c2\n"
            "rank.p1 = c1\nrank.c1 = p1\nrank.c2 = p1\n"
        )


def test_rankings_hold_the_declared_id_objects():
    profile = parse_scenario(
        "name = x\n[matching]\nproviders = alpha beta\nconsumers = gamma delta\n"
        "rank.alpha = gamma > delta\nrank.beta = delta >gamma\n"
        "rank.gamma = beta > alpha\nrank.delta = alpha>  beta\n"
    ).matching
    declared = {a: a for a in profile.providers + profile.consumers}
    rankings = [*profile.provider_prefs.values(), *profile.consumer_prefs.values()]
    assert len(rankings) == 4
    for ranking in rankings:
        assert all(tok is declared[tok] for tok in ranking)


IDS = ("a", "b", "c", "d")
SEPARATORS = (">", " > ", "  >", ">\t", " >  ")
rarely = st.integers(0, 9).map(lambda x: x == 0)


@st.composite
def matching_sections(draw):
    """Scenario text with one [matching] section, the sides it declares, the stripped
    token list of each ranking it holds, and whether the text itself is at fault: a
    missing side key, a key that is not a side or a declared id's ranking, or an empty id."""
    agents = draw(st.permutations(IDS))
    cut = draw(st.integers(0, len(IDS)))
    providers, consumers = list(agents[:cut]), list(agents[cut:])
    if draw(rarely):  # a repeated or a shared id
        (providers if draw(st.booleans()) else consumers).append(draw(st.sampled_from(IDS)))
    lines, ranks = {}, {}
    for key, side in (("providers", providers), ("consumers", consumers)):
        if not draw(rarely):
            lines[key] = " ".join(side)
    for agent in dict.fromkeys(providers + consumers):
        if draw(rarely):  # a dropped ranking
            continue
        other = consumers if agent in providers else providers
        tokens = list(draw(st.permutations(list(dict.fromkeys(other)))))
        if draw(rarely) and tokens:
            tokens.pop(draw(st.integers(0, len(tokens) - 1)))
        if draw(rarely):  # a repeated, foreign or empty id
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from([*IDS, "z", ""])))
        tokens = tokens or [""]  # an empty value is one empty id
        seps = draw(st.lists(st.sampled_from(SEPARATORS),
                             min_size=len(tokens) - 1, max_size=len(tokens) - 1))
        lines[f"rank.{agent}"] = tokens[0] + "".join(s + t for s, t in zip(seps, tokens[1:]))
        ranks[agent] = tuple(tokens)
    stray = draw(st.sampled_from([None, None, None, "rank.z", "rank.", "note"]))
    if stray:
        lines[stray] = "a > b"
    body = draw(st.permutations([f"{k} = {v}" for k, v in lines.items()]))
    fault = (stray is not None or not {"providers", "consumers"} <= set(lines)
             or any("" in ranking for ranking in ranks.values()))
    return "name = x\n[matching]\n" + "\n".join(body) + "\n", providers, consumers, ranks, fault


@settings(max_examples=300, deadline=None)
@given(matching_sections())
def test_matching_parse_agrees_with_a_profile_built_directly(section):
    text, providers, consumers, ranks, fault = section
    try:
        expected = PreferenceProfile(
            providers=tuple(providers),
            consumers=tuple(consumers),
            provider_prefs={p: ranks[p] for p in providers if p in ranks},
            consumer_prefs={c: ranks[c] for c in consumers if c in ranks},
        )
    except MalformedProfile:
        expected = None
    if fault or expected is None:
        with pytest.raises(ParseError, match=r"^\[matching\] "):
            parse_scenario(text)
    else:
        assert parse_scenario(text).matching == expected


def test_bad_number_rejected():
    with pytest.raises(ParseError):
        parse_scenario(
            "name = x\n[voting]\nballots = b.txt\nseats = two\n"
        )


def test_game_bounds_rejected():
    with pytest.raises(ParseError):
        parse_scenario("name = x\n[game]\nstrategies = AlwaysTrue\nrounds = 0\n")
    with pytest.raises(ParseError):
        parse_scenario("name = x\n[game]\nstrategies = AlwaysTrue\nseats = 0\n")
    with pytest.raises(ParseError):
        parse_scenario("name = x\n[game]\nstrategies = AlwaysTrue\naudience = 0\n")


def test_dynamics_horizon_rejected():
    with pytest.raises(ParseError):
        parse_scenario("name = x\n[dynamics]\nhorizon = 0\n")


def test_load_checks_referenced_files(tmp_path):
    path = tmp_path / "s.scn"
    path.write_text("name = x\n[voting]\nballots = missing.txt\nseats = 1\n")
    with pytest.raises(ParseError):
        load_scenario(path)
    (tmp_path / "missing.txt").write_text("1 : A\n")
    assert load_scenario(path).voting.ballots == "missing.txt"


def test_shipped_scenarios_parse(shipped_scenarios):
    for path in shipped_scenarios:
        scenario = load_scenario(path)
        assert isinstance(scenario, Scenario)
        text = serialize_scenario(scenario)
        assert parse_scenario(text) == scenario


def test_format_number():
    assert format_number(5.0) == "5"
    assert format_number(1e-9) == "1e-09"
    assert format_number(0.1) == "0.1"
    assert format_number(7) == "7"
    assert format_number(1 / 3) == "0.333333333333"
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="not a finite number"):
            format_number(value)


def test_every_float_key_declares_a_rule():
    # The section records check every number as they are built, so a float
    # key without a rule would let nan and inf through the parser.
    from infomarket._record import fields
    from infomarket.scenario import _keys
    sections, todo = set(), [parse_scenario(FULL_TEXT)]
    while todo:
        value = todo.pop()
        if hasattr(value, "__record_fields__") and type(value) not in sections:
            sections.add(type(value))
            todo += [getattr(value, f.name) for f in fields(value)]
    assert {cls.__name__ for cls in sections} >= {
        "Scenario", "MarketScenario", "MarketParams", "HarmPayoffParams", "GameSection",
        "VotingSection", "DynamicsSection", "AnalysisSection"}
    for cls in sections:
        for f in _keys(cls).values():
            if f.type in (float, tuple[float, ...]):
                assert "rules" in f.metadata, f"{cls.__name__}.{f.name}"


# Kernel fields that take their default and rules from a section field: (kernel record,
# its field, the section, the section key, whether the default is shared too).
SHARED = [
    (AcceptanceRule, "true_gain", GameSection, "true_acceptance", True),
    (AcceptanceRule, "fake_gain", GameSection, "fake_acceptance", True),
    (RetentionParams, "initial", DynamicsSection, "initial_retention", True),
    (RetentionParams, "decay", DynamicsSection, "decay_grid", False),
    (UtilityCurve, "scale", DynamicsSection, "diminishing_scale", True),
    (UtilityCurve, "exponent", DynamicsSection, "compounding_exponent", True),
    (MarketState, "reliability", AnalysisSection, "reliability_grid", False),
    (DynamicsSection, "compounding_scale", DynamicsSection, "diminishing_scale", True),
]
# The other fields each kernel record needs.
REQUIRED = {UtilityCurve: {"family": CurveFamily.COMPOUNDING},
            MarketState: {"fake": None, "true": None},
            GameSection: {"strategies": ("AlwaysTrue",)}}


@pytest.mark.parametrize("kernel, name, section, key, same_default", SHARED,
                         ids=[f"{kernel.__name__}.{name}" for kernel, name, *_ in SHARED])
def test_kernel_fields_hold_their_sections_declaration(kernel, name, section, key, same_default):
    mine, declared = next(f for f in fields(kernel) if f.name == name), _keys(section)[key]
    assert mine.metadata is declared.metadata  # the rules are declared once, on the section
    assert (mine.name, declared.name) == (name, key)  # each record names its own field
    if same_default:
        assert mine.default == declared.default


def outcome(cls, name, value):
    """The text after the field name of the error building cls with name = value, or None."""
    try:
        cls(**{name: value}, **REQUIRED.get(cls, {}))
    except ValueError as exc:
        return str(exc).removeprefix(f"{name} ")
    return None


EDGES = [0.0, -0.0, 1.0, 2.0, math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0),
         math.nextafter(1.0, 0.0), math.inf, -math.inf, math.nan]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHARED), st.one_of(st.sampled_from(EDGES), st.floats()))
def test_kernel_record_rejects_exactly_what_its_section_rejects(shared, x):
    kernel, name, section, key, _ = shared
    as_key = (x,) if _keys(section)[key].type == tuple[float, ...] else x
    assert outcome(kernel, name, x) == outcome(section, key, as_key)


def test_kernel_default_arguments_are_the_sections():
    def defaults(function):
        return {k: p.default for k, p in inspect.signature(function).parameters.items()}
    tournament = defaults(run_tournament)
    assert (tournament["rounds"], tournament["total_audience"], tournament["seats"]) == (
        GameSection.rounds, GameSection.audience, GameSection.seats)
    assert defaults(meek_count)["tolerance"] == VotingSection.tolerance
    assert defaults(diminishing_curve) == {"scale": DynamicsSection.diminishing_scale}
    assert defaults(compounding_curve) == {"scale": DynamicsSection.compounding_scale,
                                           "exponent": DynamicsSection.compounding_exponent}
