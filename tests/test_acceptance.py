"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v``; a per-criterion summary is
appended to the terminal output.
"""

import math
import random
import time
from fractions import Fraction
from itertools import islice

import pytest

from acceptance_report import criterion
from oracles import (
    cheapest_simple_path,
    enumerate_stable_vectorized,
    nash_best_response,
)
from test_matching import random_profile

from infomarket.analysis import (
    HealthCurve,
    MarketState,
    SpreadGraph,
    market_health,
    min_cost_spread_path,
    reliability_marginal_contribution,
)
from infomarket.cli import SUBCOMMANDS, main as cli_main
from infomarket.dynamics import compounding_curve, diminishing_curve, increments
from infomarket.dynamics import RetentionParams, retention
from infomarket.errors import Unreachable
from infomarket.game import Action, StageGame, always_fake, nash_equilibria, play_iterated
from infomarket.market import Equilibrium, MarketParams, equilibrium_closed_form, equilibrium_numeric
from infomarket.matching import PROVIDERS, gale_shapley, is_stable
from infomarket.payoffs import HarmPayoffParams, crossover_harm, harm_payoff
from infomarket.market import NewsType
from infomarket.voting import Ballot, droop_quota, meek_count


def test_c01_equilibrium_oracle_equivalence():
    with criterion(1, "closed form matches bisection on 10,000 markets to 1e-9, < 2 s"):
        rng = random.Random(0xE9)
        cases = [
            (rng.uniform(0.1, 10), rng.uniform(0.1, 100), rng.uniform(0.1, 10))
            for _ in range(10_000)
        ]
        start = time.perf_counter()
        for a, b, c in cases:
            closed = equilibrium_closed_form(MarketParams(a, b, c))
            numeric = equilibrium_numeric(
                lambda p: a * p, lambda p: b - c * p, (0.0, b / c)
            )
            assert abs(closed.price - numeric.price) <= 1e-9
            assert abs(closed.quantity - numeric.quantity) <= 1e-9 * (1 + closed.quantity)
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.2f}s"


def test_c02_harm_payoff_constants():
    with criterion(2, "deception payoff 5/3/1 at harm 0/1/2, truth 3, crossover 1"):
        params = HarmPayoffParams(5, 2, 3)
        assert harm_payoff(params, NewsType.FAKE, 0) == 5
        assert harm_payoff(params, NewsType.FAKE, 1) == 3
        assert harm_payoff(params, NewsType.FAKE, 2) == 1
        assert harm_payoff(params, NewsType.TRUE, 0) == 3
        assert harm_payoff(params, NewsType.FAKE, 1) == harm_payoff(params, NewsType.TRUE, 1)
        assert crossover_harm(params) == 1


def test_c03_droop_quota_values():
    with criterion(3, "quota(100 votes, 2 seats) = 34 and quota(180, 1) = 91"):
        assert droop_quota(100, 2) == 34
        assert droop_quota(180, 1) == 91


def test_c04_meek_hand_example():
    with criterion(4, "20-ballot 2-seat count: winners A,B; conservation and quota to 1e-6"):
        ballots = [Ballot(("A", "B"), 10.0), Ballot(("B",), 6.0), Ballot(("C", "B"), 4.0)]
        result = meek_count(ballots, ["A", "B", "C"], seats=2, tolerance=1e-9)
        assert result.winners == ("A", "B")
        weight = sum(b.weight for b in ballots)
        for rnd in result.rounds:
            assert abs(sum(rnd.totals.values()) + rnd.exhausted - weight) <= 1e-6
        final = result.rounds[-1]
        for winner in result.winners:
            assert abs(final.totals[winner] - final.quota) <= 1e-6
        for cand in ("A", "B", "C"):
            series = [rnd.keep_factors[cand] for rnd in result.rounds]
            assert all(0 <= k <= 1 for k in series)
            assert all(b <= a for a, b in zip(series, series[1:]))


def test_c05_matching_oracle_equivalence():
    with criterion(5, "deferred acceptance vs brute-force stable sets (10,000 + 1,000 profiles)"):
        rng = random.Random(0x6A1E)
        for _ in range(10_000):
            profile = random_profile(rng, rng.randint(1, 6), rng.randint(1, 6))
            result = gale_shapley(profile, proposing=PROVIDERS)
            check = is_stable(result, profile)
            assert check.stable and not check.blocking_pairs
            assert frozenset(result.pairs) in enumerate_stable_vectorized(profile)
        for _ in range(1_000):
            n = rng.randint(1, 5)
            profile = random_profile(rng, n, n)
            result = gale_shapley(profile, proposing=PROVIDERS)
            rank = {
                p: {c: i for i, c in enumerate(profile.provider_prefs[p])}
                for p in profile.providers
            }
            got = {p: rank[p][c] for p, c in result.pairs}
            for other in enumerate_stable_vectorized(profile):
                for p, c in other:
                    assert got[p] <= rank[p][c]


def test_c06_game_crossover_and_byte_determinism(scenario_dir, tmp_path):
    with criterion(6, "deceptive payoff dips below truth right after crossover; reruns byte-identical"):
        params = HarmPayoffParams()
        state = play_iterated((always_fake(), always_fake()), params=params, rounds=10)
        first_below = math.ceil(crossover_harm(params)) + 1  # round 2, 0-indexed
        payoffs = state.round_payoffs[0]
        assert all(p >= params.truth_payoff for p in payoffs[:first_below])
        assert all(p < params.truth_payoff for p in payoffs[first_below:])

        scenario = scenario_dir / "newsroom.scn"
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert cli_main(["game", "--scenario", str(scenario), "--out", str(out)]) == 0
        name = "newsroom_game.csv"
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_c07_nash_oracle():
    with criterion(7, "pure-equilibrium scan matches best-response oracle on 1,000 games"):
        actions = (Action.TRUE, Action.FAKE)
        pd = StageGame({
            (Action.TRUE, Action.TRUE): (3, 3),
            (Action.TRUE, Action.FAKE): (0, 5),
            (Action.FAKE, Action.TRUE): (5, 0),
            (Action.FAKE, Action.FAKE): (1, 1),
        })
        assert nash_equilibria(pd) == [(Action.FAKE, Action.FAKE)]
        rng = random.Random(0x7A57)
        for _ in range(1_000):
            payoffs = {
                (a, b): (rng.uniform(-5, 5), rng.uniform(-5, 5))
                for a in actions
                for b in actions
            }
            stage = StageGame(payoffs)
            assert set(nash_equilibria(stage)) == nash_best_response(payoffs, actions)


def test_c08_dynamics_shapes():
    with criterion(8, "strict increment monotonicity to k=10^4; retention semigroup to 1e-12"):
        n = 10_000
        dim = list(islice(increments(diminishing_curve()), n))
        assert all(b < a for a, b in zip(dim, dim[1:]))
        comp = list(islice(increments(compounding_curve()), n))
        assert all(b > a for a, b in zip(comp, comp[1:]))
        params = RetentionParams(0.85, 0.6)
        for i in range(1, 101):
            t = 0.05 * i
            assert abs(retention(params, 2 * t) - retention(params, t) ** 2 / params.initial) <= 1e-12


def test_c09_analysis_oracles():
    with criterion(9, "path vs all-simple-paths on 500 graphs; exact health scaling and telescoping"):
        rng = random.Random(0x0D1)
        for _ in range(500):
            n = rng.randint(2, 8)
            nodes = [f"n{i}" for i in range(n)]
            edges = [
                (u, v, float(rng.randint(0, 9)))
                for u in nodes
                for v in nodes
                if u != v and rng.random() < 0.4
            ]
            graph = SpreadGraph(nodes=tuple(nodes), edges=tuple(edges))
            expected = cheapest_simple_path(edges, "n0", nodes[-1])
            if expected is None:
                with pytest.raises(Unreachable):
                    min_cost_spread_path(graph, "n0", nodes[-1])
            else:
                assert min_cost_spread_path(graph, "n0", nodes[-1]) == expected

        def eq(q):
            return Equilibrium(price=Fraction(1), quantity=q)

        base = market_health(MarketState(fake=eq(Fraction(5, 2)), true=eq(Fraction(7, 3))))
        for lam in (Fraction(3), Fraction(11, 4), Fraction(1, 9)):
            scaled = market_health(
                MarketState(fake=eq(lam * Fraction(5, 2)), true=eq(lam * Fraction(7, 3)))
            )
            assert scaled == base

        scores = [Fraction(1, d) for d in (11, 7, 5, 3, 2)]
        curve = HealthCurve(points=tuple((Fraction(i, 4), s) for i, s in enumerate(scores)))
        deltas = reliability_marginal_contribution(curve)
        assert sum(d for _, d in deltas) == scores[-1] - scores[0]


def test_c10_cli_matrix_byte_identical(shipped_scenarios, tmp_path):
    with criterion(10, "every subcommand exits 0 on shipped scenarios; reruns byte-identical"):
        assert shipped_scenarios, "no shipped scenarios found"
        for scenario in shipped_scenarios:
            for subcommand in SUBCOMMANDS:
                out_a = tmp_path / "a"
                out_b = tmp_path / "b"
                args = ["--scenario", str(scenario), "--out"]
                assert cli_main([subcommand, *args, str(out_a)]) == 0
                assert cli_main([subcommand, *args, str(out_b)]) == 0
                name = f"{scenario.stem}_{subcommand}.csv"
                assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
