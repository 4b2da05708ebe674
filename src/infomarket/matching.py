"""Two-sided matching between news providers and consumers.

Deferred-acceptance matching over strict complete rankings, a blocking-pair
checker that certifies stability, marginal contribution of a provider under a
caller-supplied valuation, and the cheap/luxury segmentation of the two
markets.
"""

from collections import deque
from enum import Enum
from typing import Callable, Iterable, Mapping

from ._record import record
from .errors import MalformedProfile, UnknownId
from .market import NewsType
from .payoffs import (
    ConsumerParams,
    CostSchedule,
    ProviderParams,
    consumer_payoff,
    provider_payoff,
)

PROVIDERS = "providers"
CONSUMERS = "consumers"


@record
class PreferenceProfile:
    """Strict, complete rankings of each side over the other.

    Every provider ranks all consumers and vice versa. Sides may have
    different sizes; agents left unmatched by the deferred-acceptance run
    implicitly rank being unmatched below every listed partner. Building a
    profile whose rankings are not complete strict permutations raises
    MalformedProfile.
    """

    providers: tuple[str, ...]
    consumers: tuple[str, ...]
    provider_prefs: Mapping[str, tuple[str, ...]]
    consumer_prefs: Mapping[str, tuple[str, ...]]

    def __post_init__(self):
        object.__setattr__(self, "providers", tuple(self.providers))
        object.__setattr__(self, "consumers", tuple(self.consumers))
        object.__setattr__(
            self,
            "provider_prefs",
            {p: tuple(r) for p, r in self.provider_prefs.items()},
        )
        object.__setattr__(
            self,
            "consumer_prefs",
            {c: tuple(r) for c, r in self.consumer_prefs.items()},
        )
        providers, consumers = set(self.providers), set(self.consumers)
        if len(providers) != len(self.providers):
            raise MalformedProfile("duplicate provider ids")
        if len(consumers) != len(self.consumers):
            raise MalformedProfile("duplicate consumer ids")
        if providers & consumers:
            raise MalformedProfile("ids shared between sides")
        _check_rankings(self.provider_prefs, providers, consumers, "provider")
        _check_rankings(self.consumer_prefs, consumers, providers, "consumer")

    def without_provider(self, provider: str) -> "PreferenceProfile":
        """Copy of the profile with one provider removed everywhere."""
        if provider not in self.providers:
            raise UnknownId(f"unknown provider {provider!r}")
        return PreferenceProfile(
            providers=tuple(p for p in self.providers if p != provider),
            consumers=self.consumers,
            provider_prefs={p: r for p, r in self.provider_prefs.items() if p != provider},
            consumer_prefs={
                c: tuple(p for p in r if p != provider)
                for c, r in self.consumer_prefs.items()
            },
        )


def _check_rankings(prefs, own_ids, other_ids, side):
    if set(prefs) != own_ids:
        missing = own_ids - set(prefs)
        extra = set(prefs) - own_ids
        raise MalformedProfile(
            f"{side} rankings do not cover the side exactly "
            f"(missing={sorted(missing)}, unknown={sorted(extra)})"
        )
    for agent, ranking in prefs.items():
        ids = set(ranking)
        if len(ids) != len(ranking):
            raise MalformedProfile(f"{side} {agent!r} ranking repeats an id")
        if ids != other_ids:
            raise MalformedProfile(
                f"{side} {agent!r} ranking is not a permutation of the opposite side"
            )


@record
class Matching:
    """One-to-one assignment stored as (provider, consumer) pairs."""

    pairs: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))

    def as_sorted_pairs(self) -> list[tuple[str, str]]:
        return sorted(self.pairs)


class SegmentLabel(Enum):
    CHEAP = "cheap"
    LUXURY = "luxury"


@record
class StabilityCheck:
    stable: bool
    blocking_pairs: tuple[tuple[str, str], ...]


def gale_shapley(profile: PreferenceProfile, proposing: str = PROVIDERS) -> Matching:
    """Deferred acceptance with the given side proposing.

    Proposers work down their rankings; a proposal displaces the current
    tentative partner only if the receiver strictly prefers the newcomer.
    The result is stable and optimal for the proposing side, and is
    deterministic: free proposers are processed in their listed order.
    """
    if proposing == PROVIDERS:
        proposers, receivers = profile.providers, profile.consumers
        proposer_prefs, receiver_prefs = profile.provider_prefs, profile.consumer_prefs
    elif proposing == CONSUMERS:
        proposers, receivers = profile.consumers, profile.providers
        proposer_prefs, receiver_prefs = profile.consumer_prefs, profile.provider_prefs
    else:
        raise ValueError(f"proposing must be {PROVIDERS!r} or {CONSUMERS!r}")

    # Agents become list positions: choices[p] yields receiver positions in
    # p's order, and rank[r][p] is where receiver r ranks proposer p.
    receiver_pos = {r: i for i, r in enumerate(receivers)}.__getitem__
    choices = [map(receiver_pos, proposer_prefs[p]) for p in proposers]
    positions = list(range(len(proposers)))  # one int object per position for all rows
    rank = [
        list(map(dict(zip(receiver_prefs[r], positions)).__getitem__, proposers))
        for r in receivers
    ]
    held = [-1] * len(receivers)  # receiver -> proposer, -1 while free
    first_held = []  # receivers in the order they were first held
    free = deque(positions)
    while free:
        proposer = free.popleft()
        receiver = next(choices[proposer], -1)
        if receiver < 0:
            continue  # exhausted all receivers; stays unmatched
        current = held[receiver]
        if current < 0:
            held[receiver] = proposer
            first_held.append(receiver)
        elif rank[receiver][proposer] < rank[receiver][current]:
            held[receiver] = proposer
            free.append(current)
        else:
            free.append(proposer)

    # First-held order makes the frozenset's repr read as over a receiver ->
    # proposer dict. No sum relies on it: the string hash seed moves it too.
    if proposing == PROVIDERS:
        pairs = frozenset((proposers[held[r]], receivers[r]) for r in first_held)
    else:
        pairs = frozenset((receivers[r], proposers[held[r]]) for r in first_held)
    return Matching(pairs=pairs)


def is_stable(matching: Matching, profile: PreferenceProfile) -> StabilityCheck:
    """Find every blocking pair of the matching.

    A provider and consumer block when each strictly prefers the other to
    their assigned partner, with being unmatched ranked below everyone.
    """
    _check_matching(matching, profile)
    provider_rank = {
        p: {c: i for i, c in enumerate(r)} for p, r in profile.provider_prefs.items()
    }
    consumer_rank = {
        c: {p: i for i, p in enumerate(r)} for c, r in profile.consumer_prefs.items()
    }
    matched_c = {p: c for p, c in matching.pairs}
    matched_p = {c: p for p, c in matching.pairs}
    n_c = len(profile.consumers)
    n_p = len(profile.providers)
    blocking = []
    for p in profile.providers:
        p_current = provider_rank[p].get(matched_c.get(p), n_c)
        for c in profile.consumers:
            if provider_rank[p][c] >= p_current:
                continue
            c_current = consumer_rank[c].get(matched_p.get(c), n_p)
            if consumer_rank[c][p] < c_current:
                blocking.append((p, c))
    blocking.sort()
    return StabilityCheck(stable=not blocking, blocking_pairs=tuple(blocking))


def _check_matching(matching, profile):
    providers = set(profile.providers)
    consumers = set(profile.consumers)
    seen_p, seen_c = set(), set()
    for p, c in matching.pairs:
        if p not in providers or c not in consumers:
            raise ValueError(f"pair ({p!r}, {c!r}) uses ids outside the profile")
        if p in seen_p or c in seen_c:
            raise ValueError(f"pair ({p!r}, {c!r}) reuses an already matched id")
        seen_p.add(p)
        seen_c.add(c)


def marginal_contribution(
    profile: PreferenceProfile,
    provider: str,
    value: Callable[[Matching], float],
):
    """Change in match value from removing one provider.

    Runs provider-proposing deferred acceptance on the full profile and on
    the profile without ``provider``, and returns the difference of the
    valuation between the two matchings.

    Raises:
        UnknownId: the provider is not in the profile.
    """
    reduced = profile.without_provider(provider)
    with_p = gale_shapley(profile, proposing=PROVIDERS)
    without_p = gale_shapley(reduced, proposing=PROVIDERS)
    return value(with_p) - value(without_p)


def pair_count(matching: Matching) -> int:
    """Valuation counting matched pairs."""
    return len(matching.pairs)


def total_payoff_value(
    provider_params: Mapping[str, ProviderParams],
    consumer_params: Mapping[str, ConsumerParams],
    costs: CostSchedule,
    kind: NewsType,
) -> Callable[[Matching], float]:
    """Default valuation: provider plus consumer payoff, summed over the sorted pairs."""

    def value(matching: Matching):
        total = 0.0
        for p, c in matching.as_sorted_pairs():
            total += provider_payoff(provider_params[p], kind, costs)
            total += consumer_payoff(consumer_params[c], kind, costs)
        return total

    return value


def rankings_from_scores(scores: Mapping[str, Mapping[str, float]]) -> dict[str, tuple[str, ...]]:
    """Derive strict rankings from cardinal scores.

    Higher scores rank earlier; equal scores break toward the
    lexicographically smaller id so the ordering is total and reproducible.
    """
    return {
        agent: tuple(sorted(row, key=lambda other: (-row[other], other)))
        for agent, row in scores.items()
    }


def segment(kind: NewsType) -> SegmentLabel:
    """Market segment served by a news type: deception is the cheap market."""
    return SegmentLabel.CHEAP if kind is NewsType.FAKE else SegmentLabel.LUXURY


def segment_news(label: SegmentLabel) -> NewsType:
    """Inverse of :func:`segment`."""
    return NewsType.FAKE if label is SegmentLabel.CHEAP else NewsType.TRUE


def balanced_profile(
    provider_rankings: Iterable[tuple[str, Iterable[str]]],
    consumer_rankings: Iterable[tuple[str, Iterable[str]]],
) -> PreferenceProfile:
    """Build a profile from (id, ranking) pairs, preserving the given order."""
    p_prefs = {p: tuple(r) for p, r in provider_rankings}
    c_prefs = {c: tuple(r) for c, r in consumer_rankings}
    return PreferenceProfile(
        providers=tuple(p_prefs),
        consumers=tuple(c_prefs),
        provider_prefs=p_prefs,
        consumer_prefs=c_prefs,
    )
