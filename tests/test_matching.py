import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import enumerate_stable_pure, enumerate_stable_vectorized, gale_shapley_by_name

from infomarket.errors import MalformedProfile, UnknownId
from infomarket.market import NewsType
from infomarket.matching import (
    CONSUMERS,
    PROVIDERS,
    Matching,
    PreferenceProfile,
    SegmentLabel,
    balanced_profile,
    gale_shapley,
    is_stable,
    marginal_contribution,
    pair_count,
    rankings_from_scores,
    segment,
    segment_news,
)


def random_profile(rng, n_providers, n_consumers):
    providers = tuple(f"p{i}" for i in range(n_providers))
    consumers = tuple(f"c{j}" for j in range(n_consumers))
    p_prefs = {}
    for p in providers:
        ranking = list(consumers)
        rng.shuffle(ranking)
        p_prefs[p] = tuple(ranking)
    c_prefs = {}
    for c in consumers:
        ranking = list(providers)
        rng.shuffle(ranking)
        c_prefs[c] = tuple(ranking)
    return PreferenceProfile(providers, consumers, p_prefs, c_prefs)


def shuffled_profile(rng, n_providers, n_consumers):
    """Random profile whose ids are declared out of name order, with mixed name lengths."""
    providers = [f"p{i}" for i in range(n_providers)]
    consumers = [f"c{j}" for j in range(n_consumers)]
    rng.shuffle(providers)
    rng.shuffle(consumers)
    return PreferenceProfile(
        providers,
        consumers,
        {p: tuple(rng.sample(consumers, n_consumers)) for p in providers},
        {c: tuple(rng.sample(providers, n_providers)) for c in consumers},
    )


def test_single_pair():
    profile = balanced_profile([("p1", ["c1"])], [("c1", ["p1"])])
    assert gale_shapley(profile).pairs == {("p1", "c1")}


def test_mutual_first_choices():
    profile = balanced_profile(
        [("p1", ["c1", "c2"]), ("p2", ["c2", "c1"])],
        [("c1", ["p1", "p2"]), ("c2", ["p2", "p1"])],
    )
    assert gale_shapley(profile).pairs == {("p1", "c1"), ("p2", "c2")}


def test_three_by_three_matches_brute_force():
    rng = random.Random(31337)
    for _ in range(50):
        profile = random_profile(rng, 3, 3)
        result = gale_shapley(profile)
        stable_set = enumerate_stable_pure(profile)
        assert frozenset(result.pairs) in stable_set


def test_vectorized_oracle_agrees_with_pure():
    rng = random.Random(404)
    for _ in range(60):
        profile = random_profile(rng, rng.randint(1, 3), rng.randint(1, 3))
        assert enumerate_stable_vectorized(profile) == enumerate_stable_pure(profile)


def test_gs_output_is_stable_on_random_profiles():
    rng = random.Random(11)
    for i in range(10_000):
        profile = random_profile(rng, rng.randint(1, 8), rng.randint(1, 8))
        side = (PROVIDERS, CONSUMERS)[i % 2]
        check = is_stable(gale_shapley(profile, proposing=side), profile)
        assert check.stable and not check.blocking_pairs


def test_matches_name_keyed_deferred_acceptance_bit_for_bit():
    # repr covers the pairs and the frozenset's iteration order, which
    # follows the hash seed and, among colliding slots, insertion order.
    rng = random.Random(4242)
    unequal = 0
    for trial in range(600):
        limit = 40 if trial % 50 == 0 else 12
        n_p, n_c = rng.randint(1, limit), rng.randint(1, limit)
        unequal += n_p != n_c
        profile = shuffled_profile(rng, n_p, n_c)
        side = (PROVIDERS, CONSUMERS)[trial % 2]
        assert repr(gale_shapley(profile, proposing=side)) == repr(
            gale_shapley_by_name(profile, proposing=side)
        )
    assert unequal >= 400


def test_balanced_profiles_get_perfect_matchings():
    rng = random.Random(23)
    for n in range(1, 7):
        profile = random_profile(rng, n, n)
        assert len(gale_shapley(profile).pairs) == n


def test_is_stable_flags_swapped_mutual_firsts():
    profile = balanced_profile(
        [("p1", ["c1", "c2"]), ("p2", ["c2", "c1"])],
        [("c1", ["p1", "p2"]), ("c2", ["p2", "p1"])],
    )
    swapped = Matching(pairs={("p1", "c2"), ("p2", "c1")})
    check = is_stable(swapped, profile)
    assert not check.stable
    assert check.blocking_pairs == (("p1", "c1"), ("p2", "c2"))


def test_is_stable_empty_matching():
    profile = balanced_profile([("p1", ["c1"])], [("c1", ["p1"])])
    check = is_stable(Matching(), profile)
    assert not check.stable
    assert check.blocking_pairs == (("p1", "c1"),)


def test_is_stable_rejects_malformed_matching():
    profile = balanced_profile([("p1", ["c1"])], [("c1", ["p1"])])
    with pytest.raises(ValueError):
        is_stable(Matching(pairs={("p1", "zz")}), profile)


def test_is_stable_rejects_a_matching_that_reuses_an_id():
    profile = balanced_profile([("p1", ["c1", "c2"])], [("c1", ["p1"]), ("c2", ["p1"])])
    with pytest.raises(ValueError, match=r"reuses an already matched id$"):
        is_stable(Matching(pairs={("p1", "c1"), ("p1", "c2")}), profile)


def test_gale_shapley_rejects_an_unknown_proposing_side():
    profile = balanced_profile([("p1", ["c1"])], [("c1", ["p1"])])
    with pytest.raises(ValueError, match=r"^proposing must be 'providers' or 'consumers'$"):
        gale_shapley(profile, proposing="x")


def test_proposer_optimality_against_stable_set():
    # Every proposer must weakly prefer the proposer-side run over any other
    # stable matching (checked against exhaustive enumeration).
    rng = random.Random(777)
    for _ in range(150):
        n = rng.randint(2, 5)
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


def test_marginal_contribution_examples():
    solo = balanced_profile([("p1", ["c1"])], [("c1", ["p1"])])
    assert marginal_contribution(solo, "p1", pair_count) == 1
    assert marginal_contribution(solo, "p1", lambda m: 42.0) == 0

    profile = PreferenceProfile(
        providers=("p1", "p2", "p3"),
        consumers=("c1", "c2"),
        provider_prefs={
            "p1": ("c1", "c2"),
            "p2": ("c1", "c2"),
            "p3": ("c2", "c1"),
        },
        consumer_prefs={
            "c1": ("p2", "p1", "p3"),
            "c2": ("p3", "p1", "p2"),
        },
    )

    def consumer_rank_sum(m):
        # Hand-traced: full profile matches {(p2,c1),(p3,c2)} -> ranks 1+1=2;
        # without p3 it matches {(p2,c1),(p1,c2)} -> ranks 1+2=3.
        total = 0
        for p, c in m.pairs:
            total += profile.consumer_prefs[c].index(p) + 1
        return total

    assert marginal_contribution(profile, "p3", consumer_rank_sum) == 2 - 3


def test_marginal_contribution_pair_count_balanced():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(2, 6)
        profile = random_profile(rng, n, n)
        delta = marginal_contribution(profile, "p0", pair_count)
        assert delta in (0, 1)


def test_marginal_contribution_unknown_id():
    profile = balanced_profile([("p1", ["c1"])], [("c1", ["p1"])])
    with pytest.raises(UnknownId):
        marginal_contribution(profile, "ghost", pair_count)


# A 40x40 profile valued by total_payoff_value. Prints the valuation of its
# provider-proposing matching, a left fold of the same payoffs over the sorted
# pairs, and one provider's marginal contribution.
PAYOFF_SUM_SCRIPT = """
import random
from functools import reduce
from operator import add
from infomarket.market import NewsType
from infomarket.matching import (
    PreferenceProfile, gale_shapley, marginal_contribution, total_payoff_value)
from infomarket.payoffs import (
    ConsumerParams, CostSchedule, ProviderParams, consumer_payoff, provider_payoff)

rng = random.Random(40)
providers = [f"p{i}" for i in range(40)]
consumers = [f"c{j}" for j in range(40)]
profile = PreferenceProfile(
    providers, consumers,
    {p: tuple(rng.sample(consumers, 40)) for p in providers},
    {c: tuple(rng.sample(providers, 40)) for c in consumers},
)
p_params = {p: ProviderParams(rng.uniform(0, 10), rng.uniform(0, 3)) for p in providers}
c_params = {c: ConsumerParams(rng.uniform(0, 10), rng.uniform(0, 3)) for c in consumers}
costs = CostSchedule(0.37, 1.91, 0.53, 0.29)
value = total_payoff_value(p_params, c_params, costs, NewsType.FAKE)
matching = gale_shapley(profile)
payoffs = [x for p, c in matching.as_sorted_pairs()
           for x in (provider_payoff(p_params[p], NewsType.FAKE, costs),
                     consumer_payoff(c_params[c], NewsType.FAKE, costs))]
print(repr(value(matching)), repr(reduce(add, payoffs, 0.0)),
      repr(marginal_contribution(profile, "p0", value)))
"""


def test_total_payoff_value_is_the_same_under_every_hash_seed():
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = {
        subprocess.run(
            [sys.executable, "-c", PAYOFF_SUM_SCRIPT],
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=str(seed)),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for seed in range(4)
    }
    assert len(outputs) == 1, outputs
    valuation, fold, _ = outputs.pop().split()
    assert valuation == fold


def test_malformed_profiles_rejected():
    with pytest.raises(MalformedProfile):
        gale_shapley(PreferenceProfile(
            providers=("p1", "p2"),
            consumers=("c1", "c2"),
            provider_prefs={"p1": ("c1",), "p2": ("c1", "c2")},
            consumer_prefs={"c1": ("p1", "p2"), "c2": ("p1", "p2")},
        ))
    with pytest.raises(MalformedProfile):
        gale_shapley(PreferenceProfile(
            providers=("p1",),
            consumers=("c1", "c2"),
            provider_prefs={"p1": ("c1", "c1")},
            consumer_prefs={"c1": ("p1",), "c2": ("p1",)},
        ))


# One case per check a profile runs when it is built, with the message it gives.
MALFORMED_PROFILES = {
    "duplicate provider ids": (
        ("p1", "p1"), ("c1",), {"p1": ("c1",)}, {"c1": ("p1", "p1")},
    ),
    "duplicate consumer ids": (
        ("p1",), ("c1", "c1"), {"p1": ("c1", "c1")}, {"c1": ("p1",)},
    ),
    "ids shared between sides": (
        ("a", "p2"), ("a", "c2"),
        {"a": ("a", "c2"), "p2": ("a", "c2")}, {"a": ("a", "p2"), "c2": ("a", "p2")},
    ),
    "provider rankings do not cover the side exactly": (
        ("p1", "p2"), ("c1",), {"p1": ("c1",)}, {"c1": ("p1", "p2")},
    ),
    "consumer rankings do not cover the side exactly": (
        ("p1",), ("c1",), {"p1": ("c1",)}, {"c1": ("p1",), "c9": ("p1",)},
    ),
    "provider 'p1' ranking repeats an id": (
        ("p1",), ("c1", "c2"), {"p1": ("c1", "c1")}, {"c1": ("p1",), "c2": ("p1",)},
    ),
    "consumer 'c1' ranking is not a permutation": (
        ("p1", "p2"), ("c1",), {"p1": ("c1",), "p2": ("c1",)}, {"c1": ("p1", "p3")},
    ),
}


@pytest.mark.parametrize("message", MALFORMED_PROFILES)
def test_profile_rejects_malformed_rankings_when_built(message):
    providers, consumers, provider_prefs, consumer_prefs = MALFORMED_PROFILES[message]
    with pytest.raises(MalformedProfile, match=message):
        PreferenceProfile(providers, consumers, provider_prefs, consumer_prefs)


def test_segment_round_trip():
    assert segment(NewsType.FAKE) is SegmentLabel.CHEAP
    assert segment(NewsType.TRUE) is SegmentLabel.LUXURY
    for kind in NewsType:
        assert segment_news(segment(kind)) is kind


def test_rankings_from_scores_tie_break():
    ranks = rankings_from_scores({"p1": {"c2": 1.0, "c1": 1.0, "c3": 2.0}})
    assert ranks["p1"] == ("c3", "c1", "c2")


def test_total_payoff_valuation():
    from infomarket.matching import total_payoff_value
    from infomarket.payoffs import ConsumerParams, CostSchedule, ProviderParams

    profile = balanced_profile(
        [("p1", ["c1", "c2"]), ("p2", ["c2", "c1"])],
        [("c1", ["p1", "p2"]), ("c2", ["p2", "p1"])],
    )
    value = total_payoff_value(
        provider_params={"p1": ProviderParams(5, 1), "p2": ProviderParams(4, 1)},
        consumer_params={"c1": ConsumerParams(3, 1), "c2": ConsumerParams(2, 1)},
        costs=CostSchedule(true_cost=2.0, true_disadvantage=0.5),
        kind=NewsType.TRUE,
    )
    # Pairs (p1,c1) and (p2,c2): (5-2 + 3-0.5) + (4-2 + 2-0.5) = 9.
    assert value(gale_shapley(profile)) == 9.0
    # Without p2 only (p1,c1) remains, worth (5-2) + (3-0.5) = 5.5.
    assert marginal_contribution(profile, "p2", value) == 9.0 - 5.5
