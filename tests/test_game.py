import math
import random
from fractions import Fraction

import pytest

from oracles import HISTORY_STRATEGIES, nash_best_response, play_iterated_by_history

from infomarket.errors import EmptyInput
from infomarket.game import (
    AcceptanceRule,
    Action,
    StageGame,
    always_fake,
    always_true,
    droop_acceptance_reached,
    grim_trigger,
    harm_stage_game,
    max_compensation,
    nash_equilibria,
    play_iterated,
    rounds_to_quota,
    run_tournament,
    strategy_by_name,
    tit_for_tat,
)
from infomarket.payoffs import HarmPayoffParams, crossover_harm

PD = StageGame({
    (Action.TRUE, Action.TRUE): (3, 3),
    (Action.TRUE, Action.FAKE): (0, 5),
    (Action.FAKE, Action.TRUE): (5, 0),
    (Action.FAKE, Action.FAKE): (1, 1),
})


def test_mutual_truth_keeps_harm_at_zero():
    state = play_iterated((always_true(), always_true()), rounds=5)
    assert state.cumulative_payoffs == (15, 15)
    assert state.harm == (0, 0)
    assert state.round_payoffs[0] == (3, 3, 3, 3, 3)


def test_cumulative_payoff_is_a_left_fold():
    # Ten 0.1 payoffs fold to 0.9999999999999999; a compensated sum gives 1.0.
    players = (always_true(), always_true())
    state = play_iterated(players, HarmPayoffParams(truth_payoff=0.1), rounds=10)
    assert state.cumulative_payoffs == (0.9999999999999999, 0.9999999999999999)
    exact = play_iterated(players, HarmPayoffParams(truth_payoff=Fraction(1, 10)), rounds=10)
    assert exact.cumulative_payoffs == (1, 1)
    assert all(type(total) is Fraction for total in exact.cumulative_payoffs)


@pytest.mark.parametrize("harm_rule", ["own", "any"])
def test_exact_inputs_give_exact_payoffs_and_acceptance(harm_rule):
    params = HarmPayoffParams(Fraction(5), Fraction(2), Fraction(3))
    gains = AcceptanceRule(true_gain=Fraction(1, 3), fake_gain=Fraction(2, 3))
    state = play_iterated((always_fake(), always_true()), params, rounds=3,
                          harm_rule=harm_rule, acceptance_rule=gains)
    assert state.round_payoffs == ((5, 3, 1), (3, 3, 3))
    assert state.cumulative_payoffs == (9, 9)
    assert state.acceptance == (2, 1)
    assert state.harm == ((3, 0) if harm_rule == "own" else (3, 3))
    exact = [*state.round_payoffs[0], *state.round_payoffs[1], *state.cumulative_payoffs,
             *state.acceptance, *state.acceptance_trace[0], *state.acceptance_trace[1]]
    assert all(type(x) is Fraction for x in exact)
    assert all(type(h) is int for h in state.harm)


def test_always_fake_payoff_sequence():
    state = play_iterated((always_fake(), always_true()), rounds=4)
    assert state.round_payoffs[0] == (5, 3, 1, -1)
    assert state.cumulative_payoffs[0] == 8
    assert state.harm[0] == 4


def test_tit_for_tat_against_always_fake():
    state = play_iterated((tit_for_tat(), always_fake()), rounds=3)
    assert state.histories[0] == (Action.TRUE, Action.FAKE, Action.FAKE)
    assert state.histories[1] == (Action.FAKE, Action.FAKE, Action.FAKE)


def test_grim_trigger_never_forgives():
    def fake_once_then_true(own, opp, r):
        return Action.FAKE if r == 0 else Action.TRUE

    from infomarket.game import Strategy

    opponent = Strategy("FakeOnce", fake_once_then_true)
    state = play_iterated((grim_trigger(), opponent), rounds=4)
    assert state.histories[0] == (Action.TRUE, Action.FAKE, Action.FAKE, Action.FAKE)


def test_shared_blame_harm_rule():
    state = play_iterated((always_fake(), always_true()), rounds=3, harm_rule="any")
    # One deceptive action per round raises both players' harm.
    assert state.harm == (3, 3)
    state2 = play_iterated((always_fake(), always_fake()), rounds=2, harm_rule="any")
    assert state2.harm == (4, 4)


def test_per_round_fake_payoff_drops_below_truth_after_crossover():
    params = HarmPayoffParams()
    cross = crossover_harm(params)
    state = play_iterated((always_fake(), always_fake()), params=params, rounds=8)
    first_below = math.ceil(cross) + 1
    for r, payoff in enumerate(state.round_payoffs[0]):
        if r < first_below:
            assert payoff >= params.truth_payoff
        else:
            assert payoff < params.truth_payoff


def test_play_is_deterministic():
    args = dict(rounds=12, harm_rule="own")
    a = play_iterated((tit_for_tat(), grim_trigger()), **args)
    b = play_iterated((tit_for_tat(), grim_trigger()), **args)
    assert a == b


def test_droop_acceptance_threshold():
    rule = AcceptanceRule(true_gain=2.0, fake_gain=3.0)
    state = play_iterated((always_fake(), always_true()), rounds=12, acceptance_rule=rule)
    # Deceiver: 3/round -> 36 after 12 rounds; truth-teller: 24.
    assert droop_acceptance_reached(state, 0, total_audience=100, seats=2)
    assert not droop_acceptance_reached(state, 1, total_audience=100, seats=2)
    assert rounds_to_quota(state, 0, 100, 2) == 12
    assert rounds_to_quota(state, 1, 100, 2) is None
    zero = play_iterated(
        (always_true(), always_true()),
        rounds=1,
        acceptance_rule=AcceptanceRule(true_gain=0.0, fake_gain=0.0),
    )
    assert not droop_acceptance_reached(zero, 0, total_audience=50, seats=3)


def test_boundary_acceptance_values():
    rule = AcceptanceRule(true_gain=2.0, fake_gain=3.0)
    state = play_iterated((always_fake(), always_fake()), rounds=11, acceptance_rule=rule)
    assert state.acceptance == (33, 33)  # one below the 34 quota
    assert not droop_acceptance_reached(state, 0, 100, 2)
    exact = play_iterated(
        (always_true(), always_true()),
        rounds=2,
        acceptance_rule=AcceptanceRule(true_gain=17.0, fake_gain=17.0),
    )
    assert exact.acceptance == (34, 34)  # meeting the quota exactly counts
    assert droop_acceptance_reached(exact, 0, 100, 2)
    with pytest.raises(ValueError):
        AcceptanceRule(true_gain=-1.0)


@pytest.mark.parametrize("audience", [0, -5, math.nan, math.inf])
@pytest.mark.parametrize("quota_fn", [droop_acceptance_reached, rounds_to_quota])
def test_non_positive_or_non_finite_audience_rejected(quota_fn, audience):
    state = play_iterated((always_true(), always_true()), rounds=3)
    with pytest.raises(ValueError, match="^total_audience must be finite and > 0, got "):
        quota_fn(state, 0, audience, 2)


def test_stage_game_needs_all_four_cells():
    three = dict(list(PD.payoffs.items())[:3])
    with pytest.raises(ValueError, match=r"^stage game needs payoffs for all four action pairs$"):
        StageGame(three)


def test_nash_prisoners_dilemma():
    assert nash_equilibria(PD) == [(Action.FAKE, Action.FAKE)]


def test_nash_constant_game():
    flat = StageGame({(a, b): (1.0, 1.0) for a in Action for b in Action})
    assert len(nash_equilibria(flat)) == 4


def test_nash_coordination_game():
    coord = StageGame({
        (Action.TRUE, Action.TRUE): (2, 2),
        (Action.TRUE, Action.FAKE): (0, 0),
        (Action.FAKE, Action.TRUE): (0, 0),
        (Action.FAKE, Action.FAKE): (1, 1),
    })
    assert nash_equilibria(coord) == [
        (Action.TRUE, Action.TRUE),
        (Action.FAKE, Action.FAKE),
    ]


def test_nash_agrees_with_best_response_oracle():
    rng = random.Random(2718)
    actions = (Action.TRUE, Action.FAKE)
    for _ in range(1000):
        payoffs = {
            (a, b): (rng.randint(-5, 5), rng.randint(-5, 5))
            for a in actions
            for b in actions
        }
        stage = StageGame(payoffs)
        assert set(nash_equilibria(stage)) == nash_best_response(payoffs, actions)


def test_harm_stage_game_defaults_favor_deception():
    stage = harm_stage_game(HarmPayoffParams())
    assert nash_equilibria(stage) == [(Action.FAKE, Action.FAKE)]
    # Past the crossover the incentive flips.
    late = harm_stage_game(HarmPayoffParams(), row_harm=2.0, col_harm=2.0)
    assert nash_equilibria(late) == [(Action.TRUE, Action.TRUE)]


def test_max_compensation():
    p = HarmPayoffParams
    assert max_compensation([("p1", p(truth_payoff=3))]).provider == "p1"
    result = max_compensation([("p1", p(truth_payoff=3)), ("p2", p(truth_payoff=4))])
    assert result.provider == "p2" and not result.tied
    tied = max_compensation([("p2", p(truth_payoff=3)), ("p1", p(truth_payoff=3))])
    assert tied.provider == "p1" and tied.tied
    with pytest.raises(EmptyInput):
        max_compensation([])


def test_tournament_ordering_and_self_play():
    strategies = [strategy_by_name(n) for n in ("TitForTat", "AlwaysFake", "AlwaysTrue")]
    rows = run_tournament(strategies, rounds=5)
    names = [(r.strategy_a, r.strategy_b) for r in rows]
    assert names == sorted(names)
    assert ("AlwaysFake", "AlwaysFake") in names
    assert all(r.strategy_a <= r.strategy_b for r in rows)
    again = run_tournament(strategies, rounds=5)
    assert rows == again


def test_strategy_lookup():
    assert strategy_by_name("GrimTrigger").name == "GrimTrigger"
    with pytest.raises(ValueError):
        strategy_by_name("Nope")


def test_play_validation():
    with pytest.raises(ValueError):
        play_iterated((always_true(), always_true()), rounds=0)
    with pytest.raises(ValueError):
        play_iterated((always_true(), always_true()), rounds=1, harm_rule="both")


def _random_match_settings(rng, number):
    """Payoffs, harm rule and acceptance gains for one match."""
    return dict(
        params=HarmPayoffParams(
            fake_base=number(rng.uniform(-5, 10)),
            harm_penalty=number(rng.uniform(0.01, 5)),
            truth_payoff=number(rng.uniform(-5, 10)),
        ),
        harm_rule=rng.choice(["own", "any"]),
        acceptance_rule=AcceptanceRule(number(rng.uniform(0, 5)), number(rng.uniform(0, 5))),
    )


@pytest.mark.parametrize("number", [float, lambda x: Fraction(x).limit_denominator(1000)],
                         ids=["float", "fraction"])
def test_play_iterated_matches_history_scanning_oracle(number):
    """Every ordered strategy pair, self-play with one shared object, on
    seeded payoffs, harm rules, acceptance gains and 1 to 500 rounds."""
    rng = random.Random(f"history-oracle-{number is float}")
    names = sorted(HISTORY_STRATEGIES)
    for name_a in names:
        for name_b in names:
            for rounds in (1, 2, 500, rng.randint(3, 499)):
                settings = _random_match_settings(rng, number)
                a, b = strategy_by_name(name_a), strategy_by_name(name_b)
                ref_a, ref_b = HISTORY_STRATEGIES[name_a](), HISTORY_STRATEGIES[name_b]()
                if name_a == name_b:
                    b, ref_b = a, ref_a
                state = play_iterated((a, b), rounds=rounds, **settings)
                expected = play_iterated_by_history((ref_a, ref_b), rounds=rounds, **settings)
                assert repr(state) == repr(expected), (name_a, name_b, rounds)
