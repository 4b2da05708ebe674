import math
import operator
import random
import re
from functools import reduce

import pytest

from meek_hashes import PINNED, seed0_count_hashes
from oracles import (
    distribute_per_ballot,
    meek_count_exact,
    meek_count_per_ballot,
    meek_count_stop_at_fill,
)
from infomarket.dynamics import check_increment_profile, diminishing_curve
from infomarket.errors import (
    EmptyInput,
    InvalidSeats,
    NonConvergence,
    ParseError,
    UnknownCandidate,
)
from infomarket.voting import (
    Ballot,
    EventKind,
    droop_quota,
    first_preference_totals,
    fptp_winner,
    load_ballot_file,
    meek_count,
    parse_ballots,
    _fold,
    _PathTally,
)
from infomarket.game import always_true, play_iterated, rounds_to_quota, run_tournament
from infomarket.market import MarketParams, stability_cobweb

HAND_BALLOTS = [
    Ballot(("A", "B"), 10.0),
    Ballot(("B",), 6.0),
    Ballot(("C", "B"), 4.0),
]
# Fixed point of the hand count, solved by hand: with quota q the front
# runner keeps q/10, the second keeps q/(16-q), exhausted weight is 16-2q,
# and q = (20-(16-2q))/3 gives q = 4.
HAND_QUOTA = 4.0
HAND_KEEPS = {"A": 0.4, "B": 1 / 3, "C": 1.0}


def total_ballot_weight(ballots):
    return sum(b.weight for b in ballots)


def assert_conservation(result, ballots, tol=1e-6):
    expected = total_ballot_weight(ballots)
    for rnd in result.rounds:
        assert abs(sum(rnd.totals.values()) + rnd.exhausted - expected) <= tol


class TestFptp:
    def test_strict_maximum(self):
        result = fptp_winner([5, 3, 2])
        assert result.winner == 0 and not result.tied

    def test_tie_flag(self):
        result = fptp_winner([4, 4, 1])
        assert result.winner == 0 and result.tied

    def test_singleton(self):
        result = fptp_winner([0])
        assert result.winner == 0 and not result.tied

    def test_mapping_input(self):
        result = fptp_winner({"north": 7, "south": 6})
        assert result.winner == "north"

    def test_empty(self):
        with pytest.raises(EmptyInput):
            fptp_winner([])

    def test_negative(self):
        with pytest.raises(ValueError):
            fptp_winner([3, -1])

    def test_unknown_first_choice_rejected(self):
        with pytest.raises(UnknownCandidate, match=r"^ballot ranks unknown candidate 'C'$"):
            first_preference_totals(HAND_BALLOTS, ["A", "B"])


class TestDroopQuota:
    def test_empty_election(self):
        assert droop_quota(0, 1) == 1

    def test_invalid_seats(self):
        with pytest.raises(InvalidSeats):
            droop_quota(100, 0)

    def test_negative_votes(self):
        with pytest.raises(ValueError, match=r"^valid_votes must be finite and >= 0, got -1$"):
            droop_quota(-1, 1)

    @pytest.mark.parametrize("votes", [float("nan"), float("inf")])
    def test_non_finite_votes(self, votes):
        with pytest.raises(ValueError, match=rf"^valid_votes must be finite and >= 0, got {votes}$"):
            droop_quota(votes, 1)


# Each integer-argument guard refuses nan with its own error, not a conversion's.
NAN_GUARDS = {
    "droop_quota": (lambda: droop_quota(100, math.nan), InvalidSeats, "seats must be >= 1"),
    "rounds_to_quota": (lambda: rounds_to_quota(play_iterated((always_true(),) * 2), 0, 100,
                                                math.nan), InvalidSeats, "seats must be >= 1"),
    "meek_count": (lambda: meek_count(HAND_BALLOTS, ["A", "B", "C"], math.nan), InvalidSeats,
                   "seats must be >= 1"),
    "play_iterated": (lambda: play_iterated((always_true(),) * 2, rounds=math.nan), ValueError,
                      "rounds must be >= 1"),
    "check_increment_profile": (lambda: check_increment_profile(diminishing_curve(), math.nan),
                                ValueError, "n must be >= 2"),
    "stability_cobweb": (lambda: stability_cobweb(MarketParams(1, 10, 2), 1.0, math.nan),
                         ValueError, "steps must be >= 1"),
}


@pytest.mark.parametrize("call, error, message", NAN_GUARDS.values(), ids=NAN_GUARDS)
def test_integer_argument_guards_refuse_nan(call, error, message):
    with pytest.raises(error, match=rf"^{message}, got nan$") as exc:
        call()
    assert exc.type is error


# A value in range that is not an int (a float, inf or a bool) is refused too, with its own error.
NON_INTEGER_GUARDS = {
    "droop_quota-float": (lambda: droop_quota(100, 2.5), InvalidSeats, "seats", 2.5),
    "droop_quota-inf": (lambda: droop_quota(100, math.inf), InvalidSeats, "seats", math.inf),
    "droop_quota-bool": (lambda: droop_quota(100, True), InvalidSeats, "seats", True),
    "meek_count": (lambda: meek_count(HAND_BALLOTS, ["A", "B", "C"], seats=1.5), InvalidSeats,
                   "seats", 1.5),
    "play_iterated": (lambda: play_iterated((always_true(),) * 2, rounds=2.5), ValueError,
                      "rounds", 2.5),
    "run_tournament": (lambda: run_tournament([always_true()], seats=2.5), InvalidSeats,
                       "seats", 2.5),
    "check_increment_profile": (lambda: check_increment_profile(diminishing_curve(), 2.5),
                                ValueError, "n", 2.5),
    "stability_cobweb": (lambda: stability_cobweb(MarketParams(1, 10, 2), 1.0, 2.5),
                         ValueError, "steps", 2.5),
}


@pytest.mark.parametrize("call, error, name, value", NON_INTEGER_GUARDS.values(),
                         ids=NON_INTEGER_GUARDS)
def test_integer_argument_guards_refuse_non_integers(call, error, name, value):
    message = f"{name} must be an integer, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$") as exc:
        call()
    assert exc.type is error


class TestMeek:
    def test_single_candidate(self):
        result = meek_count([Ballot(("A",), 3.0)], ["A"], seats=1)
        assert result.winners == ("A",)

    def test_hand_example(self):
        result = meek_count(HAND_BALLOTS, ["A", "B", "C"], seats=2)
        assert result.winners == ("A", "B")
        assert_conservation(result, HAND_BALLOTS)
        final = result.rounds[-1]
        assert final.quota == pytest.approx(HAND_QUOTA, abs=1e-6)
        for winner in result.winners:
            assert final.totals[winner] == pytest.approx(final.quota, abs=1e-6)
        for cand, keep in HAND_KEEPS.items():
            assert result.keep_factors[cand] == pytest.approx(keep, abs=1e-6)

    def test_symmetric_tie_resolved_by_exclusion(self):
        ballots = [Ballot(("A",), 3.0), Ballot(("B",), 3.0), Ballot(("C",), 3.0)]
        result = meek_count(ballots, ["A", "B", "C"], seats=2)
        assert result.winners == ("B", "C")
        exclusions = [
            e for rnd in result.rounds for e in rnd.events if e.kind is EventKind.EXCLUDED
        ]
        assert [(e.candidate, e.tied) for e in exclusions] == [("A", True)]

    def test_tie_flagged_only_on_a_tied_exclusion(self):
        tied = [Ballot(("A",), 3.0), Ballot(("B",), 3.0), Ballot(("C",), 3.0)]
        assert meek_count(tied, ["A", "B", "C"], seats=2).tie_flagged
        untied = [Ballot((c,), w) for c, w in zip("ABCD", (4.0, 3.0, 2.0, 1.0))]
        result = meek_count(untied, list("ABCD"), seats=1)
        excluded = [e.candidate for r in result.rounds for e in r.events
                    if e.kind is EventKind.EXCLUDED]
        assert excluded == ["D", "C"] and not result.tie_flagged

    def test_total_weight_is_a_left_fold(self):
        # Ten 0.1 weights fold to 0.9999999999999999; a compensated sum gives 1.0.
        ballots = [Ballot(("A", "B", "C"), 0.1)] * 4 + [Ballot(("B", "C", "A"), 0.1)] * 3
        ballots += [Ballot(("C", "A", "B"), 0.1)] * 3
        seats = 1
        result = meek_count(ballots, ["A", "B", "C"], seats)
        assert result.rounds[0].exhausted == 0.0
        assert result.rounds[0].quota == 0.9999999999999999 / (seats + 1)

    def test_fold_is_a_plain_left_fold(self):
        # A compensated sum, like sum() of floats from Python 3.12, gives 2.0.
        xs = [1.0, 1e100, 1.0, -1e100]
        assert _fold(xs) == reduce(operator.add, xs, 0.0) == 0.0
        assert type(_fold(xs)) is float and type(_fold([])) is float

    def test_keep_factors_never_increase_across_rounds(self):
        ballots = [
            Ballot(("A", "B", "C"), 12.0),
            Ballot(("B", "A"), 7.0),
            Ballot(("C", "B", "A"), 6.0),
            Ballot(("D", "C"), 2.0),
        ]
        result = meek_count(ballots, ["A", "B", "C", "D"], seats=2)
        assert_conservation(result, ballots)
        for cand in "ABCD":
            series = [rnd.keep_factors[cand] for rnd in result.rounds]
            assert all(b <= a for a, b in zip(series, series[1:]))
            assert all(0 <= k <= 1 for k in series)

    def test_partial_ballots_exhaust(self):
        ballots = [Ballot(("A",), 9.0), Ballot(("B",), 1.0)]
        result = meek_count(ballots, ["A", "B"], seats=1)
        assert result.winners == ("A",)
        assert_conservation(result, ballots)

    def test_remaining_hopefuls_elected_when_seats_allow(self):
        ballots = [Ballot(("A",), 10.0), Ballot(("B",), 1.0)]
        result = meek_count(ballots, ["A", "B"], seats=2)
        assert result.winners == ("A", "B")

    def test_random_elections_respect_core_invariants(self):
        rng = random.Random(4242)
        for _ in range(100):
            n = rng.randint(1, 5)
            candidates = [f"cand{i}" for i in range(n)]
            ballots = []
            for _ in range(rng.randint(1, 12)):
                ranking = rng.sample(candidates, rng.randint(1, n))
                ballots.append(Ballot(tuple(ranking), float(rng.randint(1, 9))))
            seats = rng.randint(1, n)
            result = meek_count(ballots, candidates, seats)
            assert len(result.winners) <= seats
            assert len(set(result.winners)) == len(result.winners)
            assert_conservation(result, ballots)
            for keep in result.keep_factors.values():
                assert 0 <= keep <= 1
            final = result.rounds[-1]
            for winner in result.winners:
                # Surplus never lingers; quota-elected winners sit on the quota,
                # winners elected for lack of competition may rest below it.
                assert final.totals[winner] <= final.quota + 1e-6
                if result.keep_factors[winner] < 1.0:
                    assert final.totals[winner] >= final.quota - 1e-6

    def test_single_seat_single_preference_matches_fptp(self):
        rng = random.Random(90210)
        trials = 0
        while trials < 200:
            n = rng.randint(2, 6)
            counts = rng.sample(range(1, 40), n)  # distinct: no cross-rule ties
            candidates = [f"cand{i}" for i in range(n)]
            ballots = [
                Ballot((cand,), float(votes)) for cand, votes in zip(candidates, counts)
            ]
            plurality = fptp_winner({c: float(v) for c, v in zip(candidates, counts)})
            result = meek_count(ballots, candidates, seats=1)
            assert result.winners == (plurality.winner,)
            trials += 1

    def test_weight_scaling_leaves_winners_unchanged(self):
        rng = random.Random(555)
        for _ in range(40):
            n = rng.randint(2, 5)
            candidates = [f"cand{i}" for i in range(n)]
            ballots = [
                Ballot(
                    tuple(rng.sample(candidates, rng.randint(1, n))),
                    float(rng.randint(1, 9)),
                )
                for _ in range(8)
            ]
            base = meek_count(ballots, candidates, seats=2)
            for lam in (0.5, 2.0, 8.0):
                scaled = [Ballot(b.ranking, b.weight * lam) for b in ballots]
                assert meek_count(scaled, candidates, seats=2).winners == base.winners

    def test_unknown_candidate(self):
        with pytest.raises(UnknownCandidate):
            meek_count([Ballot(("Z",), 1.0)], ["A"], seats=1)

    def test_nonconvergence_reported_not_swallowed(self, monkeypatch):
        import infomarket.voting as voting_module

        monkeypatch.setattr(voting_module, "KEEP_ITERATION_CAP", 1)
        with pytest.raises(NonConvergence):
            meek_count(HAND_BALLOTS, ["A", "B", "C"], seats=2)

    def test_invalid_seats(self):
        with pytest.raises(InvalidSeats):
            meek_count([Ballot(("A",), 1.0)], ["A"], seats=0)

    @pytest.mark.parametrize("candidates, tolerance, message", [
        (["A", "B", "C"], -1, r"^tolerance must be finite and >= 0, got -1$"),
        (["A", "B", "A", "C"], 1e-9, r"^duplicate candidate ids$"),
    ], ids=["negative-tolerance", "duplicate-candidates"])
    def test_bad_arguments_rejected(self, candidates, tolerance, message):
        with pytest.raises(ValueError, match=message):
            meek_count(HAND_BALLOTS, candidates, seats=2, tolerance=tolerance)

    def test_duplicate_ranking_rejected(self):
        with pytest.raises(ValueError):
            Ballot(("A", "A"), 1.0)


def random_election(rng, max_cands=6, max_ballots=14):
    """Ballots drawn from a few rankings, so rankings and whole ballots repeat.

    Weights mix whole numbers (so totals tie), zero and fractions; rankings
    are partial; seats run up to the number of candidates.
    """
    n = rng.randint(1, max_cands)
    candidates = [f"cand{i}" for i in range(n)]
    pool = [tuple(rng.sample(candidates, rng.randint(1, n))) for _ in range(rng.randint(1, 6))]
    weights = [0.0, 1.0, 1.0, 2.0, 3.0, 0.1, 0.25, rng.uniform(0.0, 5.0)]
    ballots = [
        Ballot(rng.choice(pool), rng.choice(weights))
        for _ in range(rng.randint(1, max_ballots))
    ]
    ballots += rng.sample(ballots, rng.randint(0, len(ballots)))
    return ballots, candidates, rng.randint(1, n)


def benchmark_shaped_election(rng):
    """An election at the size of the benchmark's: many candidates, thousands
    of ballots from up to 300 partial rankings, zero and fractional weights."""
    n = rng.randint(12, 25)
    candidates = [f"cand{i:02d}" for i in range(n)]
    pool = [tuple(rng.sample(candidates, rng.randint(1, n))) for _ in range(rng.randint(5, 300))]
    weights = [0.0, 1.0, 1.0, 1.0, 2.0, 0.1, 0.25, rng.uniform(0.0, 5.0)]
    ballots = [Ballot(rng.choice(pool), rng.choice(weights)) for _ in range(rng.randint(500, 3000))]
    return ballots, candidates, rng.randint(1, 8)


class TestMeekOracles:
    def test_matches_per_ballot_walk_bit_for_bit(self):
        rng = random.Random(31337)
        for trial in range(1500):
            if trial % 100 == 0:
                ballots, candidates, seats = random_election(rng, 9, 400)
            else:
                ballots, candidates, seats = random_election(rng)
            assert repr(meek_count(ballots, candidates, seats)) == repr(
                meek_count_per_ballot(ballots, candidates, seats)
            )

    def test_matches_per_ballot_walk_at_benchmark_shape(self):
        rng = random.Random(9091)
        for _ in range(25):
            ballots, candidates, seats = benchmark_shaped_election(rng)
            assert repr(meek_count(ballots, candidates, seats)) == repr(
                meek_count_per_ballot(ballots, candidates, seats)
            )

    @pytest.mark.parametrize("ballots, candidates, seats", [
        # C and D are on no ballot: their shares are gathered from no ballot.
        ([Ballot(("A", "B"), 3.0), Ballot(("B", "A"), 2.5), Ballot(("A",), 0.1)] * 3,
         ["A", "B", "C", "D"], 2),
        # One ballot alone reaches D.
        (HAND_BALLOTS + [Ballot(("D", "C"), 0.5)], ["A", "B", "C", "D"], 2),
        # A single ballot: each gather has one position or none.
        ([Ballot(("B", "A", "C"), 0.75)], ["A", "B", "C"], 2),
        # No ballot carries weight, so no ballot reaches anyone.
        ([Ballot(("A", "B"), 0.0), Ballot(("B",), 0.0)], ["A", "B", "C"], 1),
    ])
    def test_matches_per_ballot_walk_with_unreached_and_singly_reached_candidates(
        self, ballots, candidates, seats
    ):
        assert repr(meek_count(ballots, candidates, seats)) == repr(
            meek_count_per_ballot(ballots, candidates, seats)
        )

    def test_agrees_with_exact_rational_count(self):
        rng = random.Random(2718)
        compared = 0
        for _ in range(150):
            ballots, candidates, seats = random_election(rng, 5, 10)
            winners, rounds, margin = meek_count_exact(ballots, candidates, seats)
            if margin < 1e-6:
                continue  # a near-tie that float rounding may break either way
            result = meek_count(ballots, candidates, seats, tolerance=1e-12)
            assert result.winners == tuple(winners)
            assert len(result.rounds) == len(rounds)
            for rnd, (totals, quota, exhausted, events) in zip(result.rounds, rounds):
                assert [(e.kind.value, e.candidate) for e in rnd.events] == events
                assert abs(rnd.quota - quota) <= 1e-9
                assert abs(rnd.exhausted - exhausted) <= 1e-9
                for cand in candidates:
                    assert abs(rnd.totals[cand] - totals[cand]) <= 1e-9
            compared += 1
        assert compared >= 100


    def test_stopping_at_the_fill_elects_the_same_winners(self):
        rng = random.Random(123)
        for trial in range(1000):
            if trial % 100 == 0:
                ballots, candidates, seats = random_election(rng, 9, 400)
            else:
                ballots, candidates, seats = random_election(rng)
            assert meek_count(ballots, candidates, seats).winners == (
                meek_count_stop_at_fill(ballots, candidates, seats)[0]
            )

    def test_stopping_at_the_fill_keeps_the_last_stage_figures(self, scenario_dir):
        # The README's "Notes on the vote count" quotes these figures.
        winners, totals, quota, exhausted, keep = meek_count_stop_at_fill(
            HAND_BALLOTS, ["A", "B", "C"], 2
        )
        assert winners == ("A", "B") and exhausted == 0.0
        assert quota == pytest.approx(20 / 3) and keep["A"] == pytest.approx(2 / 3)
        assert totals == pytest.approx({"A": 20 / 3, "B": 28 / 3, "C": 4.0})
        last = meek_count(HAND_BALLOTS, ["A", "B", "C"], 2).rounds[-1]
        assert last.exhausted == pytest.approx(8.0) and last.quota == pytest.approx(4.0)

        ballots = load_ballot_file(scenario_dir / "tight_race_ballots.txt")
        candidates = sorted({c for b in ballots for c in b.ranking})
        winners, totals, quota, exhausted, _ = meek_count_stop_at_fill(ballots, candidates, 1)
        assert winners == ("north",) and (quota, exhausted) == (9.0, 2.0)
        assert (totals["north"], totals["south"]) == (12.0, 6.0)
        last = meek_count(ballots, candidates, 1).rounds[-1]
        assert abs(last.totals["north"] - last.totals["south"]) < 1e-8

class TestBallotParsing:
    def test_round_trip_with_comments(self):
        text = [
            "# leading comment",
            "10 : A > B",
            "",
            "6:B  # inline comment",
            "4 : C > B",
        ]
        ballots = parse_ballots(text)
        assert ballots == HAND_BALLOTS

    def test_repeated_lines_share_one_ballot(self):
        ballots = parse_ballots(["2 : A > B", "1 : B", "2 : A > B  # again"])
        assert ballots == [Ballot(("A", "B"), 2.0), Ballot(("B",), 1.0), Ballot(("A", "B"), 2.0)]
        assert ballots[0] is ballots[2]

    def test_weight_required(self):
        with pytest.raises(ParseError):
            parse_ballots(["A > B"])

    def test_bad_weight(self):
        with pytest.raises(ParseError):
            parse_ballots(["ten : A"])

    @pytest.mark.parametrize("weight", ["nan", "inf", "-nan"])
    def test_non_finite_weight(self, weight):
        with pytest.raises(ParseError, match="ballot line 2"):
            parse_ballots(["1 : B > A", f"{weight} : A > B"])

    def test_empty_candidate(self):
        with pytest.raises(ParseError):
            parse_ballots(["3 : A > > B"])

    def test_duplicate_candidate(self):
        with pytest.raises(ParseError):
            parse_ballots(["3 : A > A"])

    @pytest.mark.parametrize("canonical, variants", [
        ("2 : A > B > C", [
            "2:A>B>C",
            "2\t:\tA\t>\tB\t>\tC",
            "2  :  A  >  B  >  C",
            "  2 : A > B > C  ",
            "2 : A > B > C\r\n",
            "2 : A > B > C\n",
            "2 : A > B > C  # a comment",
            "2 : A>B > C",
            "2.0 : A > B > C",
        ]),
        ("1 : New York > Los Angeles > Boston", [
            "1:New York>Los Angeles>Boston",
            "1 :  New York  >  Los Angeles\t> Boston # east and west",
            "1 : New York > Los Angeles > Boston\r\n",
        ]),
        ("3 : solo", ["3:solo", "3 :solo\r\n", "3: solo # alone"]),
        # Only the first colon ends the weight.
        ("1 : 2 : a", ["1:2 : a", "1 :2 : a  # c"]),
    ])
    def test_spacing_variants_parse_as_the_canonical_line(self, canonical, variants):
        expected = parse_ballots([canonical])
        for variant in variants:
            assert parse_ballots([variant]) == expected, variant

    @pytest.mark.parametrize("line, message", [
        ("a>b > c", "expected '<weight> : <ranking>'"),
        ("3 : a > > b", "empty candidate name"),
        ("3 : A > A", "ballot ranks a candidate twice: ('A', 'A')"),
        ("1 :", "empty candidate name"),
        ("1 : a >", "empty candidate name"),
        ("ten : A", "bad weight 'ten'"),
        (": a", "bad weight ''"),
    ])
    def test_bad_lines_keep_their_message_and_line_number(self, line, message):
        with pytest.raises(ParseError) as info:
            parse_ballots(["# header", "1 : z", line + "\n"])
        assert str(info.value) == f"ballot line 3: {message}"

    def test_first_preference_totals(self):
        totals = first_preference_totals(HAND_BALLOTS, ["A", "B", "C"])
        assert totals == {"A": 10.0, "B": 6.0, "C": 4.0}


def _perturbed(rng, order, max_swaps=3):
    """``order`` after a few random swaps of neighbours."""
    ballot = list(order)
    for _ in range(rng.randint(0, max_swaps)):
        i = rng.randrange(len(ballot) - 1)
        ballot[i], ballot[i + 1] = ballot[i + 1], ballot[i]
    return ballot


def party_shaped_election(rng):
    """Ballots around a few party orderings, so most share long prefixes:
    each follows one ordering, with neighbour swaps, sometimes a candidate
    promoted to the top, and a cut-off tail."""
    n = rng.randint(10, 20)
    candidates = [f"cand{i:02d}" for i in range(n)]
    orders = [rng.sample(candidates, n) for _ in range(rng.randint(2, 4))]
    shares = [rng.uniform(1, 3) for _ in orders]
    ballots = []
    for _ in range(rng.randint(1000, 4000)):
        ballot = _perturbed(rng, rng.choices(orders, weights=shares)[0])
        if rng.random() < 0.1:
            ballot.insert(0, ballot.pop(rng.randrange(n)))
        ballots.append(tuple(ballot[: rng.randint(2, n)]))
    return ballots, candidates, rng.randint(3, 6)


def spread_shaped_election(rng):
    """Ballots around many Plackett-Luce orderings, which share only short
    prefixes."""
    n = rng.randint(10, 20)
    candidates = [f"cand{i:02d}" for i in range(n)]
    strength = {c: 0.85**i for i, c in enumerate(rng.sample(candidates, n))}
    orders = [
        sorted(candidates, key=lambda c: -math.log(1.0 - rng.random()) / strength[c])
        for _ in range(rng.randint(50, 200))
    ]
    ballots = [
        tuple(_perturbed(rng, rng.choice(orders))[: rng.randint(4, n)])
        for _ in range(rng.randint(1000, 4000))
    ]
    return ballots, candidates, rng.randint(3, 6)


class TestMeekAtBenchmarkSharing:
    """The count against the per-ballot walk on elections shaped like the
    benchmark's: many repeated rankings, with long shared prefixes (party)
    or short ones (spread). Repeated rankings share one ``Ballot`` object,
    as ``parse_ballots`` makes them."""

    @pytest.mark.parametrize("shape, seed", [
        (party_shaped_election, 1), (party_shaped_election, 2), (party_shaped_election, 3),
        (spread_shaped_election, 1), (spread_shaped_election, 2), (spread_shaped_election, 3),
    ])
    def test_matches_per_ballot_walk(self, shape, seed):
        rng = random.Random(f"{shape.__name__}-{seed}")
        rankings, candidates, seats = shape(rng)
        shared = {}
        weights = [1.0, 1.0, 1.0, 2.0, 0.5, 0.0]
        ballots = [
            shared.setdefault((r, w), Ballot(r, w))
            for r, w in zip(rankings, rng.choices(weights, k=len(rankings)))
        ]
        result = meek_count(ballots, candidates, seats)
        assert repr(result) == repr(meek_count_per_ballot(ballots, candidates, seats))
        # Both kinds of status change re-path ballots: an election (a winner
        # whose keep factor left 1) and an exclusion.
        assert any(result.keep_factors[w] < 1.0 for w in result.winners)
        assert any(e.kind is EventKind.EXCLUDED for r in result.rounds for e in r.events)

    def test_benchmark_seed0_counts_keep_their_bits(self):
        # The fold's start value differs across Python versions; the counts
        # must not. tests/meek_hashes.py checks the same pins without pytest.
        assert seed0_count_hashes() == PINNED


def falling_keep_factors(rng, n, steps):
    """Up to ``steps`` keep-factor vectors that never rise, starting from all
    1.0. Each step changes the status of one to three candidates at once
    (keep 1 to a winner in (0, 1), keep 1 to 0, a winner to 0) and may
    squeeze the winners that stay. Yields each vector with the set of status
    changes it made: "2>1", "2>0" and "1>0"."""
    keep = [1.0] * n
    for _ in range(steps):
        live = [c for c in range(n) if keep[c] > 0.0]
        if not live:
            return
        changes = set()
        for c in rng.sample(live, min(len(live), rng.randint(1, 3))):
            if keep[c] == 1.0 and rng.random() < 0.6:
                keep[c] = rng.uniform(0.05, 0.95)
                changes.add("2>1")
            else:
                changes.add("2>0" if keep[c] == 1.0 else "1>0")
                keep[c] = 0.0
        for c in range(n):
            if 0.0 < keep[c] < 1.0 and rng.random() < 0.5:
                keep[c] *= rng.uniform(0.5, 1.0)
        yield list(keep), changes


class TestPathTallyDistribute:
    """``_PathTally.distribute`` against a walk over every ballot, as keep
    factors fall and candidates change status, one or several at a time."""

    @staticmethod
    def elections():
        """Seeded (ids, ballots, tally, keep-vector steps) with shared kinds."""
        for seed in range(10):
            rng = random.Random(f"tally-{seed}")
            n = rng.randint(4, 9)
            ids = [f"c{i}" for i in range(n)]
            kinds = [
                Ballot(tuple(rng.sample(ids, rng.randint(0, n))), rng.choice([1.0, 2.0, 0.5, 0.0]))
                for _ in range(rng.randint(10, 40))
            ]
            ballots = [rng.choice(kinds) for _ in range(rng.randint(50, 200))]
            yield ids, ballots, _PathTally(ballots, ids), falling_keep_factors(rng, n, 3 * n)

    def test_matches_per_ballot_walk_as_keep_factors_fall(self):
        seen = set()
        for ids, ballots, tally, steps in self.elections():
            for keep, changes in steps:
                seen |= changes | ({"several"} if len(changes) > 1 else set())
                totals, exhausted = tally.distribute(keep, range(len(ids)))
                expected, left = distribute_per_ballot(ballots, dict(zip(ids, keep)))
                assert repr((totals, exhausted)) == repr((list(expected.values()), left)), ids
        assert seen == {"2>1", "2>0", "1>0", "several"}

    def test_each_gathered_node_is_on_the_ballots_current_path(self):
        """Each row's gather holds, per ballot reaching the candidate, the
        node of the ballot's current path up to the candidate (through a
        winner, before a keep-1 one; the whole path on the last row). A stale
        node that only adds a keep-0 step keeps the bits, so the totals alone
        cannot show it."""
        for ids, ballots, tally, steps in self.elections():
            n = len(ids)
            for keep, _ in steps:
                tally.distribute(keep, range(n))
                up = {node: (parent, c) for (parent, c), node in tally._child.items()}

                def chain(node):  # (weight, candidate names) from the root to node
                    names = []
                    while node in up:
                        node, c = up[node]
                        names.append(ids[c])
                    return tally._start[node], names[::-1]

                expected = [[] for _ in range(n + 1)]
                for b in ballots:
                    if b.weight == 0.0:
                        continue
                    path = []
                    for name in b.ranking:
                        c = ids.index(name)
                        if keep[c] == 1.0:
                            expected[c].append((b.weight, path[:]))
                            break
                        if keep[c] > 0.0:
                            path.append(name)
                            expected[c].append((b.weight, path[:]))
                    else:
                        expected[n].append((b.weight, path))
                nodes = range(tally._nodes)
                for row in range(n + 1):
                    assert list(map(chain, tally._gathers[row](nodes))) == expected[row], row
