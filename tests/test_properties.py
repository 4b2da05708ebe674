"""Property tests: scenario round trips, malformed input fails only cleanly,
plurality, the exact and float health sweeps and the cobweb iterates match
their oracles, the game's two quota checks agree, and a CLI run on an edited
scenario either succeeds silently or ends with one error line."""

import contextlib
import io
import re
import shutil
import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infomarket.analysis import comparative_sweep, parse_spread_graph
from infomarket.cli import SUBCOMMANDS, main
from infomarket.errors import InfoMarketError, NoMarket
from infomarket.game import (
    BUILTIN_STRATEGIES,
    AcceptanceRule,
    droop_acceptance_reached,
    play_iterated,
    rounds_to_quota,
    strategy_by_name,
)
from infomarket.market import MarketParams, MarketScenario, stability_cobweb
from infomarket.matching import PreferenceProfile
from infomarket.payoffs import HarmPayoffParams
from infomarket.scenario import (
    AnalysisSection,
    DynamicsSection,
    GameSection,
    Scenario,
    VotingSection,
    format_number,
    parse_scenario,
    serialize_scenario,
)
from infomarket.voting import Ballot, first_preference_totals, fptp_winner, parse_ballots
from oracles import comparative_sweep_by_state, health_sweep_closed_form, plurality_recount

# Numbers go through format_number, so each one survives its own rendering.
numbers = st.floats(-1e6, 1e6).map(lambda x: float(format_number(x)))
positives = st.floats(1e-6, 1e6).map(lambda x: float(format_number(x)))
counts = st.integers(1, 10**6)
nonnegatives = positives | st.just(0.0)
fractions = st.floats(0, 1).map(lambda x: float(format_number(x)))
ids = st.from_regex(r"[a-z][a-z0-9_.]{0,7}", fullmatch=True)
markets = st.builds(MarketParams, positives, numbers, positives)


@st.composite
def profiles(draw):
    agents = draw(st.lists(ids, min_size=2, max_size=8, unique=True))
    cut = draw(st.integers(1, len(agents) - 1))
    providers, consumers = tuple(agents[:cut]), tuple(agents[cut:])
    return PreferenceProfile(
        providers=providers,
        consumers=consumers,
        provider_prefs={p: tuple(draw(st.permutations(consumers))) for p in providers},
        consumer_prefs={c: tuple(draw(st.permutations(providers))) for c in consumers},
    )


def optional(strategy):
    return st.none() | strategy


scenarios = st.builds(
    Scenario,
    name=ids,
    seed=st.integers(0, 10**9),
    market=optional(st.builds(MarketScenario, markets, markets)),
    payoffs=optional(st.builds(HarmPayoffParams, numbers, positives, numbers)),
    matching=optional(profiles()),
    game=optional(st.builds(
        GameSection,
        strategies=st.lists(ids, min_size=1, max_size=4).map(tuple),
        rounds=counts,
        harm_rule=st.sampled_from(["own", "any"]),
        audience=positives,
        seats=counts,
        true_acceptance=nonnegatives,
        fake_acceptance=nonnegatives,
    )),
    voting=optional(st.builds(
        VotingSection, ballots=ids, seats=counts, tolerance=positives | st.just(0.0),
    )),
    dynamics=optional(st.builds(
        DynamicsSection,
        initial_retention=fractions,
        decay_grid=st.lists(nonnegatives, min_size=1, max_size=5).map(tuple),
        diminishing_scale=nonnegatives,
        compounding_scale=nonnegatives,
        compounding_exponent=st.floats(1.001, 1e6).map(lambda x: float(format_number(x))),
        horizon=counts,
    )),
    analysis=optional(st.builds(
        AnalysisSection,
        reliability_grid=st.lists(fractions, max_size=5, unique=True).map(sorted).map(tuple),
        graph=optional(ids),
        source=optional(ids),
        target=optional(ids),
        changed_fake=optional(markets),
        changed_true=optional(markets),
    )),
).filter(lambda s: any(
    getattr(s, section) is not None
    for section in ("market", "payoffs", "matching", "game", "voting", "dynamics", "analysis")
))


@settings(max_examples=200, deadline=None)
@given(scenarios)
def test_parse_inverts_serialize(scenario):
    text = serialize_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert serialize_scenario(parse_scenario(text)) == text


# Fragments that a malformed file mixes: real and bogus headers, known keys,
# and values that are empty, non-finite, out of range, huge or not numbers.
HEADERS = ["[market.fake]", "[market.true]", "[payoffs]", "[matching]", "[game]", "[voting]",
           "[dynamics]", "[analysis]", "[analysis.changed.market.true]", "[nope]", "[", "]"]
KEYS = ["name", "seed", "supply_slope", "demand_intercept", "demand_slope", "fake_base",
        "harm_penalty", "providers", "consumers", "rank.p", "rank.c", "strategies", "rounds",
        "harm_rule", "audience", "seats", "ballots", "tolerance", "decay_grid", "horizon",
        "reliability_grid", "graph", "source", "target", "", "bogus"]
VALUES = ["", "0", "1", "-1", "2.5", "nan", "-inf", "1e999", "1" * 5000, "x", "own", "p",
          "c", "p > c", "c >", "> p", "p c", "1 2 nan", "0 0.5 1", "#", "=", "==", "AlwaysTrue"]
lines = st.one_of(
    st.sampled_from(HEADERS),
    st.builds("{} = {}".format, st.sampled_from(KEYS), st.sampled_from(VALUES)),
    st.text(string.printable, max_size=20),
)
texts = st.lists(lines, max_size=25).map("\n".join) | st.text(max_size=200)


def fails_cleanly(parse, text):
    try:
        parse(text)
    except InfoMarketError:
        pass


@settings(max_examples=300, deadline=None)
@given(texts)
def test_malformed_scenario_text_raises_only_package_errors(text):
    fails_cleanly(parse_scenario, text)


@settings(max_examples=200, deadline=None)
@given(scenarios, st.data())
def test_corrupted_scenario_value_raises_only_package_errors(scenario, data):
    rows = serialize_scenario(scenario).splitlines()
    keyed = [i for i, row in enumerate(rows) if " = " in row]
    i = data.draw(st.sampled_from(keyed))
    rows[i] = f"{rows[i].split(' = ')[0]} = {data.draw(st.sampled_from(VALUES))}"
    fails_cleanly(parse_scenario, "\n".join(rows))


ballot_lines = st.one_of(
    st.builds("{} : {}".format, st.sampled_from(VALUES), st.sampled_from(VALUES)),
    st.text(string.printable, max_size=20),
)
graph_lines = st.one_of(
    st.builds("{} {} {}".format, st.sampled_from(VALUES), st.sampled_from(VALUES),
              st.sampled_from(VALUES)),
    st.text(string.printable, max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ballot_lines, max_size=10) | st.text(max_size=200).map(str.splitlines))
def test_malformed_ballot_text_raises_only_package_errors(rows):
    fails_cleanly(parse_ballots, rows)


@settings(max_examples=300, deadline=None)
@given(st.lists(graph_lines, max_size=10) | st.text(max_size=200).map(str.splitlines))
def test_malformed_graph_text_raises_only_package_errors(rows):
    fails_cleanly(parse_spread_graph, rows)


@st.composite
def plurality_elections(draw):
    """Candidates, some ranked first by nobody, and ballots with zero,
    fractional and whole weights, partial and empty rankings."""
    candidates = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    weights = st.sampled_from([0.0, 1.0, 2.0, 0.1, 0.25, 1e-300]) | st.floats(0, 1e6)
    ballots = draw(st.lists(
        st.builds(Ballot, st.permutations(candidates).flatmap(
            lambda order: st.integers(0, len(order)).map(lambda n: tuple(order[:n]))
        ), weights),
        max_size=40,
    ))
    return candidates, ballots


@given(plurality_elections())
@settings(max_examples=300, deadline=None)
def test_plurality_matches_the_counter_recount_bit_for_bit(election):
    candidates, ballots = election
    totals, winner, tied = plurality_recount(ballots, candidates)
    got = first_preference_totals(ballots, candidates)
    assert list(got) == list(totals)
    assert [x.hex() for x in got.values()] == [x.hex() for x in totals.values()]
    result = fptp_winner(got)
    assert (result.winner, result.tied) == (winner, tied)


exact_positives = st.fractions(Fraction(1, 100), 100, max_denominator=100)
exact_markets = st.builds(MarketParams, exact_positives,
                          st.fractions(-20, 100, max_denominator=100), exact_positives)
exact_pairs = st.builds(MarketScenario, exact_markets, exact_markets)
# The ends 0 and 1 zero one side's intercept, so infeasible sides come up often.
exact_grids = st.lists(
    st.sampled_from([Fraction(0), Fraction(1)]) | st.fractions(0, 1, max_denominator=100),
    min_size=1, max_size=8, unique=True,
).map(lambda rs: tuple(sorted(rs)))


@settings(max_examples=300, deadline=None)
@given(exact_pairs, exact_pairs, exact_grids)
def test_exact_health_sweep_matches_the_closed_form(base, changed, grid):
    try:
        expected = [health_sweep_closed_form(scenario, grid) for scenario in (base, changed)]
    except NoMarket:
        with pytest.raises(NoMarket):
            comparative_sweep(base, changed, grid)
        return
    curves = comparative_sweep(base, changed, grid)
    assert [curve.points for curve in curves] == expected
    assert all(type(h) is Fraction for curve in curves for _, h in curve.points)


@settings(max_examples=300, deadline=None)
@given(exact_markets, st.fractions(-20, 100, max_denominator=100), st.integers(1, 12))
def test_cobweb_iterates_match_the_closed_form(params, p0, steps):
    # The k-th iterate is p* + (-a/c)**k * (p0 - p*), with p* = b/(a+c), exactly.
    a, b, c = params.supply_slope, params.demand_intercept, params.demand_slope
    fixed = b / (a + c)
    expected = [fixed + (-a / c) ** k * (p0 - fixed) for k in range(1, steps + 1)]
    assert list(stability_cobweb(params, p0, steps).iterates) == expected


# Intercepts at or below 0 make a side infeasible at every r, and r = 0 or 1
# zeroes one side's intercept, so points where one side or neither side
# trades come up often. A grid value outside [0, 1] must be refused at its
# own point, and an out-of-order grid after its last point.
float_markets = st.builds(
    MarketParams, st.floats(1e-3, 1e3),
    st.floats(1, 100) | st.floats(1, 100) | st.sampled_from([0.0, -0.0, -1.0, 1e-300]),
    st.floats(1e-3, 1e3),
)
float_pairs = st.builds(MarketScenario, float_markets, float_markets)
reliabilities = st.floats(0, 1) | st.sampled_from([0.0, -0.0, 1.0])
float_grids = st.lists(reliabilities, min_size=1, max_size=6).map(sorted) | st.lists(
    reliabilities | st.sampled_from([-0.25, 1.5]), min_size=1, max_size=6)


def sweep_outcome(sweep, base, changed, grid):
    try:
        return repr([curve.points for curve in sweep(base, changed, grid)])
    except (NoMarket, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=500, deadline=None)
@given(float_pairs, float_pairs, float_grids)
def test_float_health_sweep_matches_the_solved_markets_bit_for_bit(base, changed, grid):
    # Equal on every prefix of the grid, so an error comes from the same point.
    for n in range(1, len(grid) + 1):
        assert (sweep_outcome(comparative_sweep, base, changed, grid[:n])
                == sweep_outcome(comparative_sweep_by_state, base, changed, grid[:n]))


builtin_strategies = st.sampled_from(sorted(BUILTIN_STRATEGIES)).map(strategy_by_name)
gains = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(0, 50)


@settings(max_examples=300, deadline=None)
@given(builtin_strategies, builtin_strategies, st.integers(1, 40), gains, gains,
       st.floats(1e-3, 1e4), st.integers(1, 5))
def test_rounds_to_quota_is_set_exactly_when_the_quota_is_reached(
    player_a, player_b, rounds, true_gain, fake_gain, audience, seats
):
    # Acceptance never falls, so the quota is met at the end of the match
    # exactly when it was first met in some round.
    state = play_iterated((player_a, player_b), rounds=rounds,
                          acceptance_rule=AcceptanceRule(true_gain, fake_gain))
    for player in (0, 1):
        reached = droop_acceptance_reached(state, player, audience, seats)
        assert (rounds_to_quota(state, player, audience, seats) is not None) == reached


# Values for an edited scenario key: zeros, non-finite, huge, tiny, empty,
# not a number, negative, and a few ordinary ones.
EDIT_VALUES = ["0", "-0", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e400", "1e-320",
               "", "x", "-1", "1", "0.5", "2", "1 2", "0 nan"]
# rounds and horizon set the work of a run, so they stay small.
SMALL_COUNTS = ["0", "-0", "-1", "1", "3", "", "x", "1e400", "nan"]


# The sections each subcommand reads, by name prefix, so that most edits
# reach the run rather than stopping the parse of a section it ignores.
READS = {"equilibrium": ("market",), "match": ("matching",), "game": ("payoffs", "game"),
         "vote-fptp": ("voting",), "vote-meek": ("voting",), "dynamics": ("dynamics",),
         "sweep": ("market", "analysis"), "path": ("analysis",)}


@pytest.fixture(scope="module")
def newsroom_copy(scenario_dir, tmp_path_factory):
    """A directory holding newsroom's ballot and graph files, and its
    (section, row) pairs."""
    root = tmp_path_factory.mktemp("newsroom")
    for name in ("newsroom_ballots.txt", "newsroom_graph.txt"):
        shutil.copy(scenario_dir / name, root / name)
    section, rows = "", []
    for row in (scenario_dir / "newsroom.scn").read_text().splitlines():
        section = row.strip("[]") if row.startswith("[") else section
        rows.append((section, row))
    return root, rows


@settings(max_examples=500, deadline=None)
@given(st.data(), st.sampled_from(SUBCOMMANDS))
def test_cli_run_on_an_edited_scenario_succeeds_or_reports_one_error(
    newsroom_copy, data, subcommand
):
    root, sectioned = newsroom_copy
    rows = [row for _, row in sectioned]
    keyed = [i for i, (section, row) in enumerate(sectioned)
             if " = " in row and section.startswith(READS[subcommand])]
    for i in data.draw(st.lists(st.sampled_from(keyed), min_size=1, max_size=3, unique=True)):
        key = rows[i].split(" = ")[0]
        values = SMALL_COUNTS if key in ("rounds", "horizon") else EDIT_VALUES
        rows[i] = f"{key} = {data.draw(st.sampled_from(values))}"
    path = root / "edited.scn"
    path.write_text("\n".join(rows) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([subcommand, "--scenario", str(path), "--out", str(root / "out")])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 1
        assert re.fullmatch(r"error \[[a-z]+\]: [^\n]+\n", err.getvalue()), err.getvalue()
