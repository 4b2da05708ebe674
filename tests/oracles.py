"""Independent oracles used to cross-check the library.

None of these call into the implementations they verify: the stable-matching
enumerator checks blocking pairs itself, the Nash oracle builds best-response
sets, the path oracle walks every simple path, the plurality recount keeps a
by-name ``Counter``, and the Meek counts walk every ballot: one in floats, one
that stops once the seats are filled, and one in exact rationals. The
name-keyed deferred acceptance and route search are the kernels as they were
before agents and nodes became list positions, and the history-scanning game
is the iterated game whose rules read both whole histories every round; each
is kept so a kernel rewritten for speed can be held to the same results bit
for bit. The diminishing utility is a running fold over the harmonic terms.
One health sweep solves each market in closed form, exactly; the other
builds each point's markets and state, as the float sweep did before it
went to closed form. The provider-optimal matching is picked from every
stable one, and the most compensated provider is found by comparing each
provider with all the others.
"""

import heapq
import itertools
import math
import operator
from collections import Counter, deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Callable

import numpy as np

from infomarket.analysis import HealthCurve, market_health, state_at_reliability
from infomarket.errors import NoMarket, NonConvergence, Unreachable
from infomarket.game import AcceptanceRule, GameState
from infomarket.market import NewsType as Action
from infomarket.matching import PROVIDERS, Matching
from infomarket.payoffs import HarmPayoffParams, harm_payoff
from infomarket.voting import CountEvent, CountRound, ElectionResult, EventKind


def enumerate_stable_pure(profile):
    """All stable matchings by direct enumeration (small profiles only).

    Returns a set of frozensets of (provider, consumer) pairs.
    """
    providers = list(profile.providers)
    consumers = list(profile.consumers)
    p_rank = {p: {c: i for i, c in enumerate(r)} for p, r in profile.provider_prefs.items()}
    c_rank = {c: {p: i for i, p in enumerate(r)} for c, r in profile.consumer_prefs.items()}
    n, m = len(providers), len(consumers)
    stable = set()
    if n <= m:
        arrangements = itertools.permutations(consumers, n)

        def pairs_of(arr):
            return tuple(zip(providers, arr))
    else:
        arrangements = itertools.permutations(providers, m)

        def pairs_of(arr):
            return tuple(zip(arr, consumers))

    for arr in arrangements:
        pairs = pairs_of(arr)
        matched_c = dict(pairs)
        matched_p = {c: p for p, c in pairs}
        blocked = False
        for p in providers:
            current_p = p_rank[p].get(matched_c.get(p), m)
            for c in consumers:
                if p_rank[p][c] >= current_p:
                    continue
                if c_rank[c][p] < c_rank[c].get(matched_p.get(c), n):
                    blocked = True
                    break
            if blocked:
                break
        if not blocked:
            stable.add(frozenset(pairs))
    return stable


def provider_optimal_stable(profile):
    """The stable matching that every provider weakly prefers to every other one, picked
    from ``enumerate_stable_pure``; a provider left single ranks that last."""
    def ranks(pairs):
        partner = dict(pairs)
        return [profile.provider_prefs[p].index(partner[p]) if p in partner
                else len(profile.consumers) for p in profile.providers]
    stable = enumerate_stable_pure(profile)
    return next(m for m in stable
                if all(all(map(operator.le, ranks(m), ranks(other))) for other in stable))


def enumerate_stable_vectorized(profile):
    """Same contract as enumerate_stable_pure, vectorized for bulk checking."""
    providers = list(profile.providers)
    consumers = list(profile.consumers)
    n, m = len(providers), len(consumers)
    p_idx = {p: i for i, p in enumerate(providers)}
    c_idx = {c: j for j, c in enumerate(consumers)}
    rank_p = np.empty((n, m), dtype=np.int64)
    for p, ranking in profile.provider_prefs.items():
        for r, c in enumerate(ranking):
            rank_p[p_idx[p], c_idx[c]] = r
    rank_c = np.empty((m, n), dtype=np.int64)
    for c, ranking in profile.consumer_prefs.items():
        for r, p in enumerate(ranking):
            rank_c[c_idx[c], p_idx[p]] = r

    swapped = n > m
    if swapped:
        providers, consumers = consumers, providers
        rank_p, rank_c = rank_c, rank_p
        n, m = m, n
    # Now n <= m: arrangements assign each left agent a distinct right agent.
    arrs = np.array(list(itertools.permutations(range(m), n)), dtype=np.int64)
    k = arrs.shape[0]
    left_rank = rank_p[np.arange(n)[None, :], arrs]  # (k, n)
    right_rank = np.full((k, m), n, dtype=np.int64)  # unmatched ranks worst
    rows = np.repeat(np.arange(k), n)
    right_rank[rows, arrs.ravel()] = rank_c[arrs.ravel(), np.tile(np.arange(n), k)]
    wants_left = rank_p[None, :, :] < left_rank[:, :, None]  # (k, n, m)
    wants_right = rank_c.T[None, :, :] < right_rank[:, None, :]  # (k, n, m)
    blocked = (wants_left & wants_right).any(axis=(1, 2))
    stable = set()
    for arr in arrs[~blocked]:
        if swapped:
            pairs = frozenset((consumers[arr[i]], providers[i]) for i in range(n))
        else:
            pairs = frozenset((providers[i], consumers[arr[i]]) for i in range(n))
        stable.add(pairs)
    return stable


def nash_best_response(payoffs, actions):
    """Pure equilibria via best-response sets.

    ``payoffs[(a, b)] = (row utility, column utility)``.
    """
    br_row = {}
    for b in actions:
        best = max(payoffs[(a, b)][0] for a in actions)
        br_row[b] = {a for a in actions if payoffs[(a, b)][0] == best}
    br_col = {}
    for a in actions:
        best = max(payoffs[(a, b)][1] for b in actions)
        br_col[a] = {b for b in actions if payoffs[(a, b)][1] == best}
    return {
        (a, b)
        for a in actions
        for b in actions
        if a in br_row[b] and b in br_col[a]
    }


def cheapest_simple_path(edges, source, target):
    """Minimum-cost simple path by exhaustive DFS; ties prefer the smaller path.

    Returns (cost, path) or None when the target is unreachable.
    """
    adjacency = {}
    for src, dst, cost in edges:
        adjacency.setdefault(src, []).append((dst, cost))
    best = None

    def walk(node, visited, cost, path):
        nonlocal best
        if node == target:
            key = (cost, tuple(path))
            if best is None or key < best:
                best = key
            return
        for nbr, edge_cost in adjacency.get(node, ()):
            if nbr not in visited:
                visited.add(nbr)
                path.append(nbr)
                walk(nbr, visited, cost + edge_cost, path)
                path.pop()
                visited.remove(nbr)

    walk(source, {source}, 0.0, [source])
    if best is None:
        return None
    return best[0], list(best[1])


def max_compensation_by_scan(providers):
    """(provider, tied) for ``game.max_compensation``, one provider at a time: the provider
    that no other out-pays, with an id no higher than that of any provider paid as much."""
    for pid, params in providers:
        pay = params.truth_payoff
        if all(pay > q.truth_payoff or (pay == q.truth_payoff and pid <= qid)
               for qid, q in providers):
            return pid, sum(q.truth_payoff == pay for _, q in providers) >= 2


def gale_shapley_by_name(profile, proposing=PROVIDERS):
    """Reference for ``matching.gale_shapley``: dicts keyed by agent name.

    This is deferred acceptance as it was before agents became list
    positions, kept as written less its input checks.
    """
    if proposing == PROVIDERS:
        proposers = profile.providers
        proposer_prefs = profile.provider_prefs
        receiver_prefs = profile.consumer_prefs
    else:
        proposers = profile.consumers
        proposer_prefs = profile.consumer_prefs
        receiver_prefs = profile.provider_prefs

    receiver_rank = {
        r: {p: i for i, p in enumerate(ranking)} for r, ranking in receiver_prefs.items()
    }
    engaged = {}  # receiver -> proposer
    next_choice = {p: 0 for p in proposers}
    free = deque(proposers)
    while free:
        proposer = free.popleft()
        ranking = proposer_prefs[proposer]
        if next_choice[proposer] >= len(ranking):
            continue
        receiver = ranking[next_choice[proposer]]
        next_choice[proposer] += 1
        current = engaged.get(receiver)
        if current is None:
            engaged[receiver] = proposer
        elif receiver_rank[receiver][proposer] < receiver_rank[receiver][current]:
            engaged[receiver] = proposer
            free.append(current)
        else:
            free.append(proposer)

    if proposing == PROVIDERS:
        pairs = frozenset((p, r) for r, p in engaged.items())
    else:
        pairs = frozenset((r, p) for r, p in engaged.items())
    return Matching(pairs=pairs)


def min_cost_spread_path_by_name(graph, source, target):
    """Reference for ``analysis.min_cost_spread_path``: a heap of every relaxation.

    This is the search as it was before nodes became numbers: paths of
    names on the heap, and an entry pushed for every edge into a node not
    yet popped. Kept as written less its input checks.
    """
    adjacency = {n: [] for n in graph.nodes}
    for src, dst, cost in graph.edges:
        adjacency[src].append((dst, cost))
    for nbrs in adjacency.values():
        nbrs.sort()
    heap = [(0.0, (source,), source)]
    done = set()
    while heap:
        cost, path, node = heapq.heappop(heap)
        if node in done:
            continue
        if node == target:
            return cost, list(path)
        done.add(node)
        for nbr, edge_cost in adjacency[node]:
            if nbr not in done:
                heapq.heappush(heap, (cost + edge_cost, path + (nbr,), nbr))
    raise Unreachable(f"no route from {source!r} to {target!r}")


def plurality_recount(ballots, candidates):
    """Reference for ``first_preference_totals`` + ``fptp_winner``.

    Adds each ballot's weight to its first choice in ballot order, in a
    by-name ``Counter``; a candidate nobody ranks first has 0.0. The winner
    has the most weight, ties going to the lowest id. Returns the totals,
    the winner and whether the lead is tied.
    """
    counts = Counter()
    for ballot in ballots:
        if ballot.ranking:
            counts[ballot.ranking[0]] += ballot.weight
    totals = {c: float(counts[c]) for c in sorted(candidates)}
    best = max(totals.values())
    leaders = [c for c in sorted(candidates) if totals[c] == best]
    return totals, leaders[0], len(leaders) > 1


class _Status(Enum):
    HOPEFUL = "hopeful"
    ELECTED = "elected"
    EXCLUDED = "excluded"


_KEEP_ITERATION_CAP = 1000


def distribute_per_ballot(ballots, keep):
    """Each candidate's retained weight, and the exhausted weight, walking
    every ballot in turn: ``kept = w * k`` then ``w -= kept`` at each ranked
    candidate with keep factor ``k > 0``, and each total a left fold in
    ballot order. ``keep`` maps every candidate id to its keep factor."""
    totals = dict.fromkeys(keep, 0.0)
    exhausted = 0.0
    for ballot in ballots:
        w = ballot.weight
        for cand in ballot.ranking:
            if w <= 0.0:
                break
            k = keep[cand]
            if k > 0.0:
                kept = w * k
                totals[cand] += kept
                w -= kept
        exhausted += w
    return totals, exhausted


def meek_count_per_ballot(ballots, candidates, seats, tolerance=1e-9):
    """Reference for ``voting.meek_count``: each pass walks every ballot in turn.

    This is the count as it was before ballots were grouped by path, kept
    as written less its input checks, so that tests can require the grouped
    count to give the same ``ElectionResult`` bit for bit.
    """
    ids = sorted(candidates)
    status = {c: _Status.HOPEFUL for c in ids}
    keep = {c: 1.0 for c in ids}
    # A left fold, as in the count: from Python 3.12 sum() compensates float sums.
    total_weight = reduce(operator.add, (b.weight for b in ballots), 0)
    winners: list[str] = []
    rounds: list[CountRound] = []

    def quota_of(exhausted: float) -> float:
        return (total_weight - exhausted) / (seats + 1)

    while True:
        events: list[CountEvent] = []
        totals, exhausted = distribute_per_ballot(ballots, keep)
        quota = quota_of(exhausted)
        converged = False
        for _ in range(_KEEP_ITERATION_CAP):
            room = seats - len(winners)
            crossers = [
                c for c in ids if status[c] is _Status.HOPEFUL and totals[c] > quota
            ]
            if crossers and room > 0:
                crossers.sort(key=lambda c: (-totals[c], c))
                overflow = len(crossers) > room
                for c in crossers[:room]:
                    status[c] = _Status.ELECTED
                    winners.append(c)
                    events.append(
                        CountEvent(
                            EventKind.ELECTED,
                            c,
                            tied=overflow and totals[c] == totals[crossers[room]],
                        )
                    )
            newly_elected = bool(crossers) and room > 0
            surplus = max(
                (
                    totals[c] - quota
                    for c in ids
                    if status[c] is _Status.ELECTED and totals[c] > quota
                ),
                default=0.0,
            )
            if not newly_elected and surplus <= tolerance:
                converged = True
                break
            for c in ids:
                if status[c] is _Status.ELECTED and totals[c] > quota:
                    keep[c] = keep[c] * quota / totals[c]
            totals, exhausted = distribute_per_ballot(ballots, keep)
            quota = quota_of(exhausted)
        if not converged:
            raise NonConvergence(
                f"surplus transfer missed tolerance {tolerance} "
                f"after {_KEEP_ITERATION_CAP} iterations"
            )

        hopefuls = [c for c in ids if status[c] is _Status.HOPEFUL]
        if len(winners) == seats or not hopefuls:
            rounds.append(CountRound(dict(totals), quota, exhausted, tuple(events), dict(keep)))
            break
        if len(hopefuls) + len(winners) <= seats:
            # Too few contenders left for the open seats: all of them win.
            for c in hopefuls:
                status[c] = _Status.ELECTED
                winners.append(c)
                events.append(CountEvent(EventKind.ELECTED, c))
            rounds.append(CountRound(dict(totals), quota, exhausted, tuple(events), dict(keep)))
            break
        low = min(totals[c] for c in hopefuls)
        tied_low = [c for c in hopefuls if totals[c] == low]
        excluded = min(tied_low)
        status[excluded] = _Status.EXCLUDED
        keep[excluded] = 0.0
        events.append(CountEvent(EventKind.EXCLUDED, excluded, tied=len(tied_low) > 1))
        rounds.append(CountRound(dict(totals), quota, exhausted, tuple(events), dict(keep)))

    return ElectionResult(
        winners=tuple(winners), rounds=tuple(rounds), keep_factors=dict(keep)
    )


def meek_count_stop_at_fill(ballots, candidates, seats, tolerance=1e-9):
    """Meek's method ended as Algorithm 123 ends it: once the seats are filled.

    Hill, Wichmann & Woodall, Computer J. 30(3), 1987. Each iteration walks
    every ballot, elects the hopefuls above the quota (highest total first,
    ties toward the lower id) and stops as soon as the last seat is filled.
    Otherwise, after an election or while a surplus exceeds ``tolerance``,
    it lowers each elected keep factor to ``keep * quota / total``; when
    neither holds it elects every hopeful if they just fill the seats, or
    excludes the lowest (ties toward the lower id). ``voting.meek_count``
    uses the same rules but goes on lowering keep factors after the seats
    are filled.

    Returns ``(winners, totals, quota, exhausted, keep)`` as the count ends.
    """
    ids = sorted(candidates)
    keep = dict.fromkeys(ids, 1.0)
    hopefuls = list(ids)
    winners = []
    total_weight = sum(b.weight for b in ballots)
    for _ in range(_KEEP_ITERATION_CAP * (len(ids) + 1)):
        totals = dict.fromkeys(ids, 0.0)
        exhausted = 0.0
        for ballot in ballots:
            w = ballot.weight
            for cand in ballot.ranking:
                kept = w * keep[cand]
                totals[cand] += kept
                w -= kept
            exhausted += w
        quota = (total_weight - exhausted) / (seats + 1)
        crossers = sorted((c for c in hopefuls if totals[c] > quota), key=lambda c: (-totals[c], c))
        elected = crossers[: seats - len(winners)]
        winners += elected
        hopefuls = [c for c in hopefuls if c not in elected]
        if len(winners) == seats or not hopefuls:
            return tuple(winners), totals, quota, exhausted, keep
        over = [c for c in winners if totals[c] > quota]
        if elected or any(totals[c] - quota > tolerance for c in over):
            for c in over:
                keep[c] = keep[c] * quota / totals[c]
        elif len(hopefuls) + len(winners) <= seats:
            return tuple(winners + hopefuls), totals, quota, exhausted, keep
        else:
            lowest = min(hopefuls, key=lambda c: (totals[c], c))
            hopefuls.remove(lowest)
            keep[lowest] = 0.0
    raise NonConvergence("stop-at-fill Meek count did not converge")


def _round_up(x, grid):
    return Fraction(math.ceil(x * grid), grid)


def meek_count_exact(ballots, candidates, seats, tolerance=Fraction(1, 10**12), grid=2**80):
    """The Meek count in exact rational arithmetic, with the float count's rules.

    Ballot weights convert to ``Fraction`` exactly and every total, quota and
    exhausted weight is exact. Only keep factors are rounded, up to a
    multiple of ``1/grid``, as Algorithm 123 rounds them up to its fixed
    precision; unrounded, their denominators grow with every iteration.

    Returns ``(winners, rounds, margin)``. Each round is ``(totals, quota,
    exhausted, events)`` with events as ``(kind, candidate)`` pairs. ``margin``
    is the smallest gap behind any decision: a hopeful's total against the
    quota, or the two totals an election or exclusion chose between. A float
    count may decide a near-tie the other way, so callers set those aside.
    """
    ids = sorted(candidates)
    weighted = [(Fraction(b.weight), b.ranking) for b in ballots]
    total_weight = sum(w for w, _ in weighted)
    keep = dict.fromkeys(ids, Fraction(1))
    status = dict.fromkeys(ids, "hopeful")
    winners, rounds = [], []
    margin = math.inf

    def note(gap):
        nonlocal margin
        margin = min(margin, abs(gap))

    def distribute():
        totals = dict.fromkeys(ids, Fraction(0))
        exhausted = Fraction(0)
        for w, ranking in weighted:
            for cand in ranking:
                share = w * keep[cand]
                totals[cand] += share
                w -= share
            exhausted += w
        return totals, exhausted, (total_weight - exhausted) / (seats + 1)

    while True:
        events = []
        for _ in range(_KEEP_ITERATION_CAP):
            totals, exhausted, quota = distribute()
            hopefuls = [c for c in ids if status[c] == "hopeful"]
            crossers = sorted(
                (c for c in hopefuls if totals[c] > quota), key=lambda c: (-totals[c], c)
            )
            room = seats - len(winners)
            if room > 0:
                for c in hopefuls:
                    note(totals[c] - quota)
            if 0 < room < len(crossers):
                note(totals[crossers[room - 1]] - totals[crossers[room]])
            for c in crossers[:room]:
                status[c] = "elected"
                winners.append(c)
                events.append(("elected", c))
            over = [c for c in ids if status[c] == "elected" and totals[c] > quota]
            if not crossers[:room] and all(totals[c] - quota <= tolerance for c in over):
                break
            for c in over:
                keep[c] = _round_up(keep[c] * quota / totals[c], grid)
        else:
            raise RuntimeError("exact Meek count did not converge")

        hopefuls = [c for c in ids if status[c] == "hopeful"]
        done = len(winners) == seats or not hopefuls
        if not done and len(hopefuls) + len(winners) <= seats:
            for c in hopefuls:
                status[c] = "elected"
                winners.append(c)
                events.append(("elected", c))
            done = True
        if not done:
            lowest = sorted(hopefuls, key=lambda c: (totals[c], c))
            note(totals[lowest[1]] - totals[lowest[0]])
            status[lowest[0]] = "excluded"
            keep[lowest[0]] = Fraction(0)
            events.append(("excluded", lowest[0]))
        rounds.append((totals, quota, exhausted, events))
        if done:
            return winners, rounds, margin


# The iterated provision game with every strategy rule reading the whole
# histories each round: copies of the four built-in rules and of
# ``play_iterated``, so a rewrite of the game can be held to them bit for bit.

@dataclass(frozen=True)
class HistoryStrategy:
    """Named decision rule: (own history, opponent history, round index) -> Action."""

    name: str
    rule: Callable

    def act(self, own, opponent, round_index) -> Action:
        return self.rule(own, opponent, round_index)


def always_true() -> HistoryStrategy:
    return HistoryStrategy("AlwaysTrue", lambda own, opp, r: Action.TRUE)


def always_fake() -> HistoryStrategy:
    return HistoryStrategy("AlwaysFake", lambda own, opp, r: Action.FAKE)


def tit_for_tat() -> HistoryStrategy:
    """Open truthfully, then mirror the opponent's previous action."""

    def rule(own, opp, r):
        return opp[-1] if opp else Action.TRUE

    return HistoryStrategy("TitForTat", rule)


def grim_trigger() -> HistoryStrategy:
    """Truthful until the opponent deceives once, then deceive forever."""

    def rule(own, opp, r):
        return Action.FAKE if Action.FAKE in opp else Action.TRUE

    return HistoryStrategy("GrimTrigger", rule)


HISTORY_STRATEGIES = {
    "AlwaysTrue": always_true,
    "AlwaysFake": always_fake,
    "TitForTat": tit_for_tat,
    "GrimTrigger": grim_trigger,
}


def play_iterated_by_history(
    strategies: tuple[HistoryStrategy, HistoryStrategy],
    params: HarmPayoffParams = HarmPayoffParams(),
    rounds: int = 1,
    harm_rule: str = "own",
    acceptance_rule: AcceptanceRule = AcceptanceRule(),
) -> GameState:
    """Reference for ``game.play_iterated``: both whole histories go to each
    rule every round. Under ``"own"`` a player's harm rises by one per
    deceptive action of their own, under ``"any"`` by the round's deceptive
    actions from both players."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    if harm_rule not in ("own", "any"):
        raise ValueError(f"harm_rule must be 'own' or 'any', got {harm_rule!r}")
    histories: tuple[list[Action], list[Action]] = ([], [])
    harm = [0, 0]
    payoffs: tuple[list[float], list[float]] = ([], [])
    acceptance = [0, 0]
    acc_trace: tuple[list[float], list[float]] = ([], [])
    for r in range(rounds):
        actions = (
            strategies[0].act(histories[0], histories[1], r),
            strategies[1].act(histories[1], histories[0], r),
        )
        fakes_in_round = sum(1 for a in actions if a is Action.FAKE)
        for i in (0, 1):
            payoffs[i].append(harm_payoff(params, actions[i], harm[i]))
            histories[i].append(actions[i])
            if harm_rule == "own":
                if actions[i] is Action.FAKE:
                    harm[i] += 1
            else:
                harm[i] += fakes_in_round
            acceptance[i] += acceptance_rule.gain(actions[i])
            acc_trace[i].append(acceptance[i])
    return GameState(
        round=rounds,
        histories=(tuple(histories[0]), tuple(histories[1])),
        harm=(harm[0], harm[1]),
        cumulative_payoffs=tuple(reduce(operator.add, p, 0) for p in payoffs),
        acceptance=(acceptance[0], acceptance[1]),
        round_payoffs=(tuple(payoffs[0]), tuple(payoffs[1])),
        acceptance_trace=(tuple(acc_trace[0]), tuple(acc_trace[1])),
    )


def utility_running_fold(scale, k_max):
    """Reference for the diminishing ``dynamics.utility``: its values at
    k = 0, 1, ..., k_max as one running left fold, ``total += scale / i``
    from 0, so each value adds the same terms in the same order."""
    totals = [0]
    total = 0
    for i in range(1, k_max + 1):
        total += scale / i
        totals.append(total)
    return totals


def health_sweep_closed_form(scenario, grid):
    """Reference for one curve of ``analysis.comparative_sweep``: at each
    reliability r the deceptive intercept is scaled by 1 - r and the truthful
    one by r; a side whose scaled intercept b' is <= 0 trades nothing, any
    other trades q = a*b'/(a + c), and health is q_true / (q_fake + q_true).

    Raises:
        NoMarket: both sides trade nothing at some r.
    """

    def quantity(params, b):
        a, c = params.supply_slope, params.demand_slope
        return a * b / (a + c) if b > 0 else 0

    points = []
    for r in grid:
        b_fake = scenario.fake.demand_intercept * (1 - r)
        b_true = scenario.true.demand_intercept * r
        if b_fake <= 0 and b_true <= 0:
            raise NoMarket(f"no side trades at reliability {r}")
        q_fake, q_true = quantity(scenario.fake, b_fake), quantity(scenario.true, b_true)
        points.append((r, q_true / (q_fake + q_true)))
    return tuple(points)


def comparative_sweep_by_state(base, changed, grid):
    """Reference for the float ``analysis.comparative_sweep``: the sweep as it
    was before it went to closed form, building each point's markets,
    equilibria and state and scoring them with ``market_health``."""
    before, after = [], []
    for r in grid:
        before.append((r, market_health(state_at_reliability(base, r))))
        after.append((r, market_health(state_at_reliability(changed, r))))
    return HealthCurve(points=tuple(before)), HealthCurve(points=tuple(after))
