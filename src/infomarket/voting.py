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
import sys
from collections import defaultdict
from enum import Enum
from itertools import chain, compress
from typing import Callable, Iterable, Mapping, Sequence

from ._record import record, require, rule
from .errors import (
    EmptyInput,
    InvalidSeats,
    NonConvergence,
    ParseError,
    UnknownCandidate,
)
from .scenario import VotingSection

KEEP_ITERATION_CAP = 1000


@record
class Ballot:
    """A weighted ranking over candidates. Partial rankings are allowed."""

    ranking: tuple[str, ...]
    weight: float = rule(">=", 0, default=1.0)

    def __post_init__(self):
        object.__setattr__(self, "ranking", tuple(self.ranking))
        if len(set(self.ranking)) != len(self.ranking):
            raise ValueError(f"ballot ranks a candidate twice: {self.ranking}")


class EventKind(Enum):
    ELECTED = "elected"
    EXCLUDED = "excluded"


@record
class CountEvent:
    kind: EventKind
    candidate: str
    tied: bool = False


@record
class CountRound:
    """End-of-stage snapshot: totals, quota, exhausted weight, and what happened."""

    totals: dict[str, float]
    quota: float
    exhausted: float
    events: tuple[CountEvent, ...]
    keep_factors: dict[str, float]


@record
class ElectionResult:
    winners: tuple[str, ...]
    rounds: tuple[CountRound, ...]
    keep_factors: dict[str, float]

    @property
    def tie_flagged(self) -> bool:
        return any(e.tied for r in self.rounds for e in r.events)


@record
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
        try:
            if not count >= 0:
                raise ValueError(f"negative vote count for {cand!r}")
        except TypeError:  # a count that no number compares with
            raise ValueError(f"negative vote count for {cand!r}") from None
    best = max(count for _, count in items)
    leaders = sorted(cand for cand, count in items if count == best)
    return FptpResult(winner=leaders[0], tied=len(leaders) > 1)


def droop_quota(valid_votes, seats: int) -> int:
    """Smallest whole number of votes guaranteeing election in a seats-seat race.

    ``floor(valid_votes / (seats + 1)) + 1``.

    Raises:
        InvalidSeats: seats is below 1, nan or not an integer.
        ValueError: valid_votes is negative, nan or infinite.
    """
    require("seats", seats, ">=", 1, integer=True, error=InvalidSeats)
    require("valid_votes", valid_votes, ">=", 0, finite=True)
    return math.floor(valid_votes / (seats + 1)) + 1


def _gather(positions: Sequence[int]) -> Callable[[Sequence], Sequence]:
    """The items of a sequence at ``positions``, in order (``itemgetter`` needs two or more)."""
    if len(positions) > 1:
        return operator.itemgetter(*positions)
    return lambda xs: [xs[p] for p in positions]


class _PlainZero(float):
    """0.0 as a float subclass. From Python 3.12 ``sum()`` compensates a float
    sum, but only on its fast path, taken when the start is an exact float;
    from this start it adds with plain ``+``, in order. Before 3.12 the fast
    path adds plain doubles in order, so there 0.0 itself is the start."""


_PLAIN_ZERO = _PlainZero() if sys.version_info >= (3, 12) else 0.0


def _fold(xs: Iterable[float]) -> float:
    """``reduce(operator.add, xs, 0.0)``: the same additions in order, without a call per item."""
    return float(sum(xs, _PLAIN_ZERO))


class _PathTally:
    """Ballot weight distribution over a trie of (weight, path prefix) nodes.

    Candidates are positions in the sorted ids. Handing a ballot down its
    ranking, a candidate with keep factor 0 takes nothing and one with keep
    factor 1 takes all that is left (``w - w * 1.0 == 0.0``). So what a
    ballot gives each candidate depends only on its weight and its *path*:
    the ranking without the keep-0 candidates, cut after the first keep-1
    candidate. Every candidate on a path is a winner (keep factor in (0, 1))
    but the keep-1 one that may end it. A trie node is a (weight, path
    prefix) ending at a winner; a pass walks the nodes parent before child
    with the float operations of one ballot step, ``kept = w * keep[c]``
    then ``w -= kept``. The keep-1 candidate ending a path takes
    ``w * 1.0 == w``, the weight left at the node before it.

    A kind is one distinct ``Ballot`` object. A path moves only when a
    candidate on it changes status (its keep factor leaves 1 or reaches 0),
    so only the kinds whose path holds that candidate are walked again from
    their roots. New nodes are appended, and only the gathers that changed
    are rebuilt. A candidate's gather is a node per ballot that reaches it,
    in ballot order: a winner's own node (its ``kept``) or a keep-1
    candidate's parent node (its leftover). The last gather holds the end
    nodes of the paths that stop short of a keep-1 candidate, whose leftover
    exhausts.

    Each total is a left fold with plain ``+`` in ballot order over the
    ballots that reach the candidate (the ones left out would add only
    ``+0.0``), so the bits are those of walking every ballot in turn.
    ``_fold`` sums from ``_PLAIN_ZERO``, so no Python version compensates it.
    """

    def __init__(self, ballots: Sequence[Ballot], ids: Sequence[str]):
        position = {c: i for i, c in enumerate(ids)}
        # Sharing one object per repeated line (as parse_ballots does) only makes kinds fewer:
        # equal ballots that are separate objects are separate kinds, with the same bits.
        kinds = list({id(b): b for b in ballots}.values())
        try:
            self._rankings = [list(map(position.__getitem__, b.ranking)) for b in kinds]
        except KeyError as exc:
            raise UnknownCandidate(f"ballot ranks unknown candidate {exc.args[0]!r}") from None
        kind_of = {id(b): k for k, b in enumerate(kinds)}
        self._kind = list(map(kind_of.__getitem__, map(id, ballots)))
        self._members: list[list[int]] = [[] for _ in kinds]  # ballot positions, ascending
        for i, k in enumerate(self._kind):
            self._members[k].append(i)
        # Node 0 is on no path, so 0 can mean "no node"; the roots come next.
        roots: dict[float, int] = {}
        self._root = [roots.setdefault(b.weight, len(roots) + 1) for b in kinds]
        self._start = [0.0, *roots]
        self._nodes = len(self._start)
        self._child: dict[tuple[int, int], int] = {}
        # Batches of appended nodes, each with its parents in earlier batches:
        # a gather of the parents and one of the candidates.
        self._batches: list[tuple[Callable, Callable]] = []
        self._n = n = len(ids)
        # Row c holds each kind's node for candidate c (0: its path misses c)
        # and the ballot positions that reach c, ascending; the last row holds
        # the end nodes of the open paths. A weight-0 ballot, which gives
        # nothing to anyone, is on no row.
        self._state = [2] * n
        self._rows = [[0] * len(kinds) for _ in range(n + 1)]
        self._reach: list[list[int]] = [[] for _ in range(n + 1)]
        self._gathers: list = [None] * (n + 1)  # the first walk builds them all
        self._walk([k for k, b in enumerate(kinds) if b.weight > 0.0], range(n + 1))

    def _walk(self, kinds: Iterable[int], changed: Iterable[int]) -> None:
        """Walks each of ``kinds`` from its weight's root under the current
        state, and rebuilds the gathers of ``changed`` and of every row that
        gained a kind or changed one's node."""
        state, rows, n = self._state, self._rows, self._n
        joined: dict[int, list[int]] = defaultdict(list)  # row -> the kinds that join it
        redo = set(changed)
        # (kind, node reached, the candidates left on its path)
        tails = [(k, self._root[k], filter(state.__getitem__, self._rankings[k])) for k in kinds]
        # Depth by depth, so each batch of new nodes has its parents in earlier batches.
        while tails:
            parents: list[int] = []
            cands: list[int] = []
            going = []
            for k, end, path in tails:
                c = next(path, n)  # n: the path is open, and its leftover exhausts
                node = end
                if c < n and state[c] == 1:
                    node = self._child.setdefault((end, c), self._nodes)
                    if node == self._nodes:
                        self._nodes += 1
                        parents.append(end)
                        cands.append(c)
                    going.append((k, node, path))
                if not rows[c][k]:
                    joined[c].append(k)
                elif rows[c][k] != node:
                    redo.add(c)
                rows[c][k] = node
            if parents:
                self._batches.append((_gather(parents), _gather(cands)))
            tails = going
        for row in redo.union(joined):
            if row in joined:
                reach = self._reach[row]
                reach += chain.from_iterable(map(self._members.__getitem__, joined[row]))
                reach.sort()  # ascending runs (the old reach, each kind's members): merged
            self._gathers[row] = self._gather_row(row)

    def _gather_row(self, row: int) -> Callable[[Sequence], Sequence]:
        """The nodes of the ballots that reach ``row``, in ballot order."""
        return _gather(_gather(_gather(self._reach[row])(self._kind))(self._rows[row]))

    def _repath(self, state: list[int]) -> None:
        """Walks again the kinds whose path holds a candidate whose status changed.

        Keep factors never rise, so a path can only grow past a candidate
        that left keep 1 and lose candidates that reached keep 0, whose rows
        are cleared. Every other row only gains kinds, or changes a kind's
        node (a candidate elected, or one above it dropped out).
        """
        changed = [c for c, (s, t) in enumerate(zip(state, self._state)) if s != t]
        kinds = range(len(self._rankings))
        moved = sorted(set(chain.from_iterable(compress(kinds, self._rows[c]) for c in changed)))
        self._state = state
        for c in changed:
            if not state[c]:
                self._rows[c] = [0] * len(kinds)
                self._reach[c] = []
        self._walk(moved, changed)

    def distribute(
        self, keep: Sequence[float], reading: Iterable[int]
    ) -> tuple[list[float], float]:
        """The retained weight of each candidate in ``reading`` (0.0 for the
        rest, which ``fold`` can fill in later), and the exhausted weight."""
        # 2: keep-1, 1: a winner, between 0 and 1, 0: takes nothing.
        state = [(k == 1.0) + (k > 0.0) for k in keep]
        if state != self._state:
            self._repath(state)
        rem = self._start[:]
        kept = [0.0] * len(rem)
        for parents, cands in self._batches:
            arriving = parents(rem)
            shares = list(map(operator.mul, arriving, cands(keep)))
            kept += shares
            rem += map(operator.sub, arriving, shares)
        self._kept, self._rem = kept, rem
        totals = [0.0] * self._n
        self.fold(totals, reading)
        return totals, _fold(self._gathers[-1](rem))

    def fold(self, totals: list[float], cands: Iterable[int]) -> None:
        """Fills in the totals of ``cands`` from the last distribution."""
        for c in cands:
            totals[c] = _fold(self._gathers[c](self._kept if self._state[c] == 1 else self._rem))


def meek_count(
    ballots: Sequence[Ballot],
    candidates: Sequence[str],
    seats: int,
    tolerance: float = VotingSection.tolerance,
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
        InvalidSeats: seats is below 1, nan or not an integer.
        UnknownCandidate: a ballot ranks an id not in ``candidates``.
        NonConvergence: keep-factor iteration missed tolerance at the cap.
    """
    require("seats", seats, ">=", 1, integer=True, error=InvalidSeats)
    require("tolerance", tolerance, ">=", 0, finite=True)
    ids = sorted(candidates)
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate candidate ids")
    tally = _PathTally(ballots, ids)

    # Candidates are positions in the sorted ``ids``, so positions order as ids do.
    # Hopefuls stay ascending, so ties break toward the lowest id; winners are
    # in election order; an excluded candidate is in neither, with keep 0.0.
    hopefuls = list(range(len(ids)))
    winners: list[int] = []
    keep = [1.0] * len(ids)
    total_weight = _fold(map(operator.attrgetter("weight"), ballots))
    rounds: list[CountRound] = []

    def distribute() -> tuple[list[float], float, float]:
        # Once the seats are full, only the winners' totals are read until the snapshot.
        totals, exhausted = tally.distribute(
            keep, winners if len(winners) == seats else range(len(ids))
        )
        return totals, exhausted, (total_weight - exhausted) / (seats + 1)

    def named(values: list[float]) -> dict[str, float]:
        return dict(zip(ids, values))

    while True:
        events: list[CountEvent] = []
        totals, exhausted, quota = distribute()
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
            totals, exhausted, quota = distribute()
        else:
            raise NonConvergence(
                f"surplus transfer missed tolerance {tolerance} "
                f"after {KEEP_ITERATION_CAP} iterations"
            )

        room = seats - len(winners)
        if room == 0:
            tally.fold(totals, hopefuls)  # the snapshot reads what passes since the fill skipped
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
    totals = {c: 0.0 for c in sorted(candidates)}
    for ballot in ballots:
        if not ballot.ranking:
            continue
        first = ballot.ranking[0]
        if first not in totals:
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
    seen: dict[str, Ballot] = {}  # by stripped, comment-free line
    for lineno, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        ballot = seen.get(line)
        if ballot is None:
            ballot = seen[line] = _parse_line(line, lineno)
        ballots.append(ballot)
    return ballots


def _parse_line(line: str, lineno: int) -> Ballot:
    """One stripped, comment-free ballot line."""
    if ":" not in line:
        raise ParseError(f"ballot line {lineno}: expected '<weight> : <ranking>'")
    weight_text, ranking_text = line.split(":", 1)
    weight_text = weight_text.strip()
    names = list(map(str.strip, ranking_text.split(">")))
    try:
        weight = float(weight_text)
    except ValueError:
        raise ParseError(f"ballot line {lineno}: bad weight {weight_text!r}") from None
    if not all(names):
        raise ParseError(f"ballot line {lineno}: empty candidate name")
    try:
        return Ballot(ranking=tuple(names), weight=weight)
    except ValueError as exc:
        raise ParseError(f"ballot line {lineno}: {exc}") from None


def load_ballot_file(path) -> list[Ballot]:
    with open(path, encoding="utf-8") as f:
        if f.read(1) != "\ufeff":  # a leading byte-order mark is not part of line 1
            f.seek(0)
        return parse_ballots(f)
