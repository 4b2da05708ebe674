"""Ranked-ballot tallying: plurality, quota, and fractional-transfer counts.

The multi-seat count keeps a per-candidate retention fraction ("keep factor")
in [0, 1]. Each ballot's weight flows down its ranking; a candidate retains
``keep * arriving_weight`` and passes the remainder to the next preference,
with anything flowing past the last ranked candidate counted as exhausted.
Elected candidates' keep factors are squeezed iteratively until their
retained totals sit on the quota, which itself is recomputed from the
non-exhausted weight as the count progresses.
"""

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import accumulate, chain
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    EmptyInput,
    InvalidSeats,
    NonConvergence,
    ParseError,
    UnknownCandidate,
)

DEFAULT_TOLERANCE = 1e-9
KEEP_ITERATION_CAP = 1000


@dataclass(frozen=True)
class Ballot:
    """A weighted ranking over candidates. Partial rankings are allowed."""

    ranking: tuple[str, ...]
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if not (self.weight >= 0 and math.isfinite(self.weight)):
            raise ValueError(f"ballot weight must be finite and >= 0, got {self.weight}")
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError(f"ballot ranks a candidate twice: {self.ranking}")


class EventKind(Enum):
    ELECTED = "elected"
    EXCLUDED = "excluded"


@dataclass(frozen=True)
class CountEvent:
    kind: EventKind
    candidate: str
    tied: bool = False


@dataclass(frozen=True)
class CountRound:
    """End-of-stage snapshot: totals, quota, exhausted weight, and what happened."""

    totals: dict[str, float]
    quota: float
    exhausted: float
    events: tuple[CountEvent, ...]
    keep_factors: dict[str, float]


@dataclass(frozen=True)
class ElectionResult:
    winners: tuple[str, ...]
    rounds: tuple[CountRound, ...]
    keep_factors: dict[str, float]

    @property
    def tie_flagged(self) -> bool:
        return any(e.tied for r in self.rounds for e in r.events)


@dataclass(frozen=True)
class FptpResult:
    winner: str | int
    tied: bool


def fptp_winner(votes) -> FptpResult:
    """Plurality winner: the candidate with the most votes.

    ``votes`` is either a sequence of counts (candidates are the indices) or
    a mapping from candidate id to count. Ties go to the lowest id and are
    flagged in the result.

    Raises:
        EmptyInput: no candidates.
    """
    if isinstance(votes, Mapping):
        items = list(votes.items())
    else:
        items = list(enumerate(votes))
    if not items:
        raise EmptyInput("no candidates to tally")
    for cand, count in items:
        if count < 0:
            raise ValueError(f"negative vote count for {cand!r}")
    best = max(count for _, count in items)
    leaders = sorted(cand for cand, count in items if count == best)
    return FptpResult(winner=leaders[0], tied=len(leaders) > 1)


def droop_quota(valid_votes, seats: int) -> int:
    """Smallest whole number of votes guaranteeing election in a seats-seat race.

    ``floor(valid_votes / (seats + 1)) + 1``.

    Raises:
        InvalidSeats: seats < 1.
    """
    if seats < 1:
        raise InvalidSeats(f"seats must be >= 1, got {seats}")
    if valid_votes < 0:
        raise ValueError(f"valid_votes must be >= 0, got {valid_votes}")
    return math.floor(valid_votes / (seats + 1)) + 1


def _gather(positions: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """The items of a sequence at ``positions``, in order (``itemgetter`` needs two or more)."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    return lambda xs: [xs[p] for p in positions]


def _fold(xs: Iterable[float]) -> float:
    """``reduce(operator.add, xs, 0.0)``: the same additions in order, without a call per item."""
    return deque(accumulate(xs, initial=0.0), maxlen=1)[0]


class _PathTally:
    """Ballot weight distribution that walks each distinct ballot path once.

    Candidates are positions in the sorted ids. Handing a ballot down its
    ranking, a candidate with keep factor 0 takes nothing and one with keep
    factor 1 takes all that is left (``w - w * 1.0 == 0.0``). So what a
    ballot gives each candidate depends only on its weight and its *path*:
    the ranking without the keep-0 candidates, cut after the first keep-1
    candidate. Ballots are grouped by (weight, path); the groups, and each
    candidate's gather of group shares in ballot order, are rebuilt only
    when the set of keep-1 or keep-0 candidates changes.

    The result is bit-identical to walking every ballot in turn: each group
    walk makes the same float operations as one of its ballots, and each
    total is a left fold with plain ``+`` in ballot order over the ballots
    that reach the candidate (the ones left out would add only ``+0.0``).
    ``sum()`` is not used because from Python 3.12 it compensates float sums.
    """

    def __init__(self, ballots: Sequence[Ballot], ids: Sequence[str]):
        position = {c: i for i, c in enumerate(ids)}
        kinds: dict[tuple[float, tuple[str, ...]], int] = {}
        # Weight-0 ballots give nothing to anyone.
        self._kind_of_ballot = _gather([
            kinds.setdefault((b.weight, b.ranking), len(kinds))
            for b in ballots
            if b.weight > 0.0
        ])
        self._kinds = [(w, [position[c] for c in ranking]) for w, ranking in kinds]
        self._n = len(ids)
        self._signature: list[tuple[bool, bool]] | None = None

    def _group(self, keep: Sequence[float]) -> None:
        groups: dict[tuple[float, tuple[int, ...]], int] = {}
        group_of_kind = []
        for weight, ranking in self._kinds:
            path = []
            for cand in ranking:
                k = keep[cand]
                if k > 0.0:
                    path.append(cand)
                    if k == 1.0:
                        break
            group_of_kind.append(groups.setdefault((weight, tuple(path)), len(groups)))
        self._groups = list(groups)
        ballot_groups = self._kind_of_ballot(group_of_kind)
        members: list[list[int]] = [[] for _ in groups]  # ballot positions, ascending
        for i, g in enumerate(ballot_groups):
            members[g].append(i)
        # The groups reaching each candidate, then the open groups, whose leftover exhausts.
        rows: list[list[int]] = [[] for _ in range(self._n + 1)]
        for g, (_, path) in enumerate(self._groups):
            for cand in path:
                rows[cand].append(g)
            if not (path and keep[path[-1]] == 1.0):
                rows[-1].append(g)

        def gather(reaching: list[int]) -> Callable[[Sequence], Sequence]:
            """Gathers the shares of the ``reaching`` groups ballot by ballot, in ballot order."""
            positions = sorted(chain.from_iterable(map(members.__getitem__, reaching)))
            return _gather(_gather(positions)(ballot_groups))

        *self._reach, self._open = map(gather, rows)

    def distribute(self, keep: Sequence[float]) -> tuple[list[float], float]:
        """Each candidate's retained weight, and the exhausted weight."""
        signature = [(k == 1.0, k > 0.0) for k in keep]
        if signature != self._signature:
            self._group(keep)
            self._signature = signature
        shares = [[0.0] * len(self._groups) for _ in range(self._n)]
        left = []
        for g, (w, path) in enumerate(self._groups):
            for cand in path:
                if w <= 0.0:
                    break
                kept = w * keep[cand]
                shares[cand][g] = kept
                w -= kept
            left.append(w)
        totals = [_fold(get(row)) for get, row in zip(self._reach, shares)]
        return totals, _fold(self._open(left))


def meek_count(
    ballots: Sequence[Ballot],
    candidates: Sequence[str],
    seats: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ElectionResult:
    """Multi-seat count with iteratively adjusted retention fractions.

    Candidates whose retained total strictly exceeds the dynamic quota
    ``(total_weight - exhausted) / (seats + 1)`` are elected; their keep
    factors are then multiplied by ``quota / total`` each pass until every
    elected total is within ``tolerance`` of the quota, which transfers the
    surplus down-ballot. When nobody can cross the quota, the hopeful with
    the lowest total is excluded (keep factor zero), ties broken toward the
    lowest id and flagged. If the hopefuls remaining are exactly enough to
    fill the seats they are all elected. Keep factors never increase, and
    retained totals plus exhausted weight always account for the full ballot
    weight.

    Raises:
        InvalidSeats: seats < 1.
        UnknownCandidate: a ballot ranks an id not in ``candidates``.
        NonConvergence: keep-factor iteration missed tolerance at the cap.
    """
    if seats < 1:
        raise InvalidSeats(f"seats must be >= 1, got {seats}")
    if not (tolerance >= 0 and math.isfinite(tolerance)):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    ids = sorted(candidates)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate candidate ids")
    known = set(ids)
    for ranking in dict.fromkeys(b.ranking for b in ballots):
        for cand in ranking:
            if cand not in known:
                raise UnknownCandidate(f"ballot ranks unknown candidate {cand!r}")

    # Candidates are positions in the sorted ``ids``, so positions order as ids do.
    # Hopefuls stay ascending, so ties break toward the lowest id; winners are
    # in election order; an excluded candidate is in neither, with keep 0.0.
    hopefuls = list(range(len(ids)))
    winners: list[int] = []
    keep = [1.0] * len(ids)
    # A left fold, not sum(): from Python 3.12 sum() compensates float sums.
    total_weight = reduce(operator.add, (b.weight for b in ballots), 0)
    rounds: list[CountRound] = []
    tally = _PathTally(ballots, ids)

    def quota_of(exhausted: float) -> float:
        return (total_weight - exhausted) / (seats + 1)

    def named(values: list[float]) -> dict[str, float]:
        return dict(zip(ids, values))

    while True:
        events: list[CountEvent] = []
        totals, exhausted = tally.distribute(keep)
        quota = quota_of(exhausted)
        for _ in range(KEEP_ITERATION_CAP):
            room = seats - len(winners)
            crossers = [c for c in hopefuls if totals[c] > quota] if room > 0 else []
            crossers.sort(key=lambda c: (-totals[c], c))
            for c in crossers[:room]:
                hopefuls.remove(c)
                winners.append(c)
                tied = len(crossers) > room and totals[c] == totals[crossers[room]]
                events.append(CountEvent(EventKind.ELECTED, ids[c], tied=tied))
            over = [c for c in winners if totals[c] > quota]
            if not crossers and max((totals[c] - quota for c in over), default=0.0) <= tolerance:
                break
            for c in over:
                keep[c] = keep[c] * quota / totals[c]
            totals, exhausted = tally.distribute(keep)
            quota = quota_of(exhausted)
        else:
            raise NonConvergence(
                f"surplus transfer missed tolerance {tolerance} "
                f"after {KEEP_ITERATION_CAP} iterations"
            )

        room = seats - len(winners)
        excluding = 0 < room < len(hopefuls)
        if excluding:
            low = min(totals[c] for c in hopefuls)
            tied_low = [c for c in hopefuls if totals[c] == low]
            excluded = tied_low[0]
            hopefuls.remove(excluded)
            keep[excluded] = 0.0
            events.append(CountEvent(EventKind.EXCLUDED, ids[excluded], tied=len(tied_low) > 1))
        elif room > 0:
            # Too few contenders left for the open seats: all of them win.
            winners += hopefuls
            events += [CountEvent(EventKind.ELECTED, ids[c]) for c in hopefuls]
        rounds.append(CountRound(named(totals), quota, exhausted, tuple(events), named(keep)))
        if not excluding:
            break

    return ElectionResult(
        winners=tuple(ids[c] for c in winners), rounds=tuple(rounds), keep_factors=named(keep)
    )


def first_preference_totals(
    ballots: Sequence[Ballot], candidates: Sequence[str]
) -> dict[str, float]:
    """Summed ballot weight by first-ranked candidate (for plurality tallies)."""
    known = set(candidates)
    totals = {c: 0.0 for c in sorted(candidates)}
    for ballot in ballots:
        if not ballot.ranking:
            continue
        first = ballot.ranking[0]
        if first not in known:
            raise UnknownCandidate(f"ballot ranks unknown candidate {first!r}")
        totals[first] += ballot.weight
    return totals


def parse_ballots(lines: Iterable[str]) -> list[Ballot]:
    """Parse a line-oriented ballot file.

    Each non-blank, non-comment line reads ``<weight> : <cand> > <cand> > ...``
    with ``#`` starting a comment. Repeated lines share one ``Ballot``.

    Raises:
        ParseError: a line does not match the format.
    """
    ballots = []
    seen: dict[str, Ballot] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in seen:
            ballots.append(seen[line])
            continue
        if ":" not in line:
            raise ParseError(f"ballot line {lineno}: expected '<weight> : <ranking>'")
        weight_text, ranking_text = line.split(":", 1)
        try:
            weight = float(weight_text.strip())
        except ValueError:
            raise ParseError(
                f"ballot line {lineno}: bad weight {weight_text.strip()!r}"
            ) from None
        names = [tok.strip() for tok in ranking_text.split(">")]
        if any(not n for n in names):
            raise ParseError(f"ballot line {lineno}: empty candidate name")
        try:
            seen[line] = Ballot(ranking=tuple(names), weight=weight)
        except ValueError as exc:
            raise ParseError(f"ballot line {lineno}: {exc}") from None
        ballots.append(seen[line])
    return ballots


def load_ballot_file(path) -> list[Ballot]:
    with open(path, encoding="utf-8") as f:
        return parse_ballots(f)
