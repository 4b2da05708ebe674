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
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

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


class _Status(Enum):
    HOPEFUL = "hopeful"
    ELECTED = "elected"
    EXCLUDED = "excluded"


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
    ids = sorted(candidates)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate candidate ids")
    known = set(ids)
    for ballot in ballots:
        for cand in ballot.ranking:
            if cand not in known:
                raise UnknownCandidate(f"ballot ranks unknown candidate {cand!r}")

    status = {c: _Status.HOPEFUL for c in ids}
    keep = {c: 1.0 for c in ids}
    total_weight = sum(b.weight for b in ballots)
    winners: list[str] = []
    rounds: list[CountRound] = []

    def distribute() -> tuple[dict[str, float], float]:
        totals = {c: 0.0 for c in ids}
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

    def quota_of(exhausted: float) -> float:
        return (total_weight - exhausted) / (seats + 1)

    while True:
        events: list[CountEvent] = []
        totals, exhausted = distribute()
        quota = quota_of(exhausted)
        converged = False
        for _ in range(KEEP_ITERATION_CAP):
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
            totals, exhausted = distribute()
            quota = quota_of(exhausted)
        if not converged:
            raise NonConvergence(
                f"surplus transfer missed tolerance {tolerance} "
                f"after {KEEP_ITERATION_CAP} iterations"
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
    with ``#`` starting a comment.

    Raises:
        ParseError: a line does not match the format.
    """
    ballots = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
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
            ballots.append(Ballot(ranking=tuple(names), weight=weight))
        except ValueError as exc:
            raise ParseError(f"ballot line {lineno}: {exc}") from None
    return ballots


def load_ballot_file(path) -> list[Ballot]:
    with open(path, encoding="utf-8") as f:
        return parse_ballots(f)
