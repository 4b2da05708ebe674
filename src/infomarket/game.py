"""Iterated two-player provision game with cumulative credibility harm.

Each round both players choose to provide truthful or deceptive news. A
deceptive play pays well at first but every unit of accumulated harm lowers
the deceptive payoff, while truth pays a constant amount. Players also accrue
audience acceptance each round; crossing the quota threshold from the voting
rules marks the point where a player's output counts as common knowledge.
Stage games can be scanned exhaustively for pure equilibria.
"""

from itertools import combinations_with_replacement
from typing import Callable, Mapping, Sequence

from ._record import record, require
from .errors import EmptyInput
from .market import NewsType
from .payoffs import HarmPayoffParams, harm_payoff
from .scenario import GameSection, _keys
from .voting import droop_quota

Action = NewsType  # ProvideTrue == NewsType.TRUE, ProvideFake == NewsType.FAKE

HARM_PER_OWN_FAKE = "own"
HARM_PER_ANY_FAKE = "any"

StrategyRule = Callable[[Sequence[Action], Sequence[Action], int], Action]


@record
class Strategy:
    """Named decision rule: (own history, opponent history, round index) -> Action.

    Rules must be pure functions of their arguments so a strategy object can
    be reused across matches, including against itself.
    """

    name: str
    rule: StrategyRule

    def act(self, own, opponent, round_index) -> Action:
        return self.rule(own, opponent, round_index)


def always_true() -> Strategy:
    return Strategy("AlwaysTrue", lambda own, opp, r: Action.TRUE)


def always_fake() -> Strategy:
    return Strategy("AlwaysFake", lambda own, opp, r: Action.FAKE)


def tit_for_tat() -> Strategy:
    """Open truthfully, then mirror the opponent's previous action."""

    def rule(own, opp, r):
        return opp[-1] if opp else Action.TRUE

    return Strategy("TitForTat", rule)


def grim_trigger() -> Strategy:
    """Truthful until the opponent deceives once, then deceive forever."""

    def rule(own, opp, r):
        return Action.FAKE if Action.FAKE in opp else Action.TRUE

    return Strategy("GrimTrigger", rule)


BUILTIN_STRATEGIES: dict[str, Callable[[], Strategy]] = {
    "AlwaysTrue": always_true,
    "AlwaysFake": always_fake,
    "TitForTat": tit_for_tat,
    "GrimTrigger": grim_trigger,
}


def strategy_by_name(name: str) -> Strategy:
    try:
        return BUILTIN_STRATEGIES[name]()
    except KeyError:
        known = ", ".join(sorted(BUILTIN_STRATEGIES))
        raise ValueError(f"unknown strategy {name!r} (available: {known})") from None


@record
class AcceptanceRule:
    """Audience acceptance gained per round by action.

    Deceptive output spreads faster than truthful output by default; both
    gains are modeling knobs, not measured quantities.
    """

    true_gain: float = _keys(GameSection)["true_acceptance"]
    fake_gain: float = _keys(GameSection)["fake_acceptance"]

    def gain(self, action: Action) -> float:
        return self.fake_gain if action is Action.FAKE else self.true_gain


@record
class GameState:
    """Outcome of an iterated match.

    ``histories``, ``round_payoffs`` and ``acceptance_trace`` are per player
    and per round; ``harm``, ``cumulative_payoffs`` and ``acceptance`` hold
    the end-of-match values. ``harm`` is a count of the deceptive plays
    charged to each player under the harm rule. Payoffs and acceptance keep
    the number type of the inputs (e.g. ``Fraction``).
    """

    round: int
    histories: tuple[tuple[Action, ...], tuple[Action, ...]]
    harm: tuple[int, int]
    cumulative_payoffs: tuple[float, float]
    acceptance: tuple[float, float]
    round_payoffs: tuple[tuple[float, ...], tuple[float, ...]]
    acceptance_trace: tuple[tuple[float, ...], tuple[float, ...]]


def play_iterated(
    strategies: tuple[Strategy, Strategy],
    params: HarmPayoffParams = HarmPayoffParams(),
    rounds: int = 1,
    harm_rule: str = HARM_PER_OWN_FAKE,
    acceptance_rule: AcceptanceRule = AcceptanceRule(),
) -> GameState:
    """Run an iterated match between two strategies.

    Per round, each player's payoff is evaluated at their harm level from
    before the round, then harm is updated: under ``"own"`` a player's harm
    rises by one per deceptive action of their own, under ``"any"`` by the
    total number of deceptive actions played in the round (by either player).
    """
    require("rounds", rounds, ">=", 1, integer=True)
    require("harm_rule", harm_rule, "in", (HARM_PER_OWN_FAKE, HARM_PER_ANY_FAKE))
    own = harm_rule == HARM_PER_OWN_FAKE
    histories: tuple[list[Action], list[Action]] = ([], [])
    harm = [0, 0]
    totals = [0, 0]
    payoffs: tuple[list[float], list[float]] = ([], [])
    acceptance = [0, 0]
    acc_trace: tuple[list[float], list[float]] = ([], [])
    for r in range(rounds):
        actions = (
            strategies[0].act(histories[0], histories[1], r),
            strategies[1].act(histories[1], histories[0], r),
        )
        fakes = (actions[0] is Action.FAKE, actions[1] is Action.FAKE)
        for i in (0, 1):
            payoff = harm_payoff(params, actions[i], harm[i])
            payoffs[i].append(payoff)
            # A running left fold, not sum(): from Python 3.12 sum() compensates float sums.
            totals[i] += payoff
            histories[i].append(actions[i])
            harm[i] += fakes[i] if own else fakes[0] + fakes[1]
            acceptance[i] += acceptance_rule.gain(actions[i])
            acc_trace[i].append(acceptance[i])
    return GameState(
        round=rounds,
        histories=(tuple(histories[0]), tuple(histories[1])),
        harm=(harm[0], harm[1]),
        cumulative_payoffs=(totals[0], totals[1]),
        acceptance=(acceptance[0], acceptance[1]),
        round_payoffs=(tuple(payoffs[0]), tuple(payoffs[1])),
        acceptance_trace=(tuple(acc_trace[0]), tuple(acc_trace[1])),
    )


def _audience_quota(total_audience: float, seats: int) -> int:
    """The Droop quota of a finite, positive audience."""
    require("total_audience", total_audience, ">", 0, finite=True)
    return droop_quota(total_audience, seats)


def droop_acceptance_reached(
    state: GameState, player: int, total_audience: float, seats: int
) -> bool:
    """Whether a player's accumulated acceptance meets the quota threshold."""
    return state.acceptance[player] >= _audience_quota(total_audience, seats)


def rounds_to_quota(
    state: GameState, player: int, total_audience: float, seats: int
) -> int | None:
    """First round (1-based) at which the quota threshold is met, else None."""
    quota = _audience_quota(total_audience, seats)
    for r, acc in enumerate(state.acceptance_trace[player], start=1):
        if acc >= quota:
            return r
    return None


@record
class StageGame:
    """One-shot 2x2 game; payoffs[(row_action, col_action)] = (row, col)."""

    payoffs: Mapping[tuple[Action, Action], tuple[float, float]]

    def __post_init__(self):
        cells = {(a, b) for a in Action for b in Action}
        if set(self.payoffs) != cells:
            raise ValueError("stage game needs payoffs for all four action pairs")


def harm_stage_game(
    params: HarmPayoffParams, row_harm: float = 0.0, col_harm: float = 0.0
) -> StageGame:
    """Stage game induced by the harm payoffs at given harm levels."""
    table = {}
    for a in Action:
        for b in Action:
            table[(a, b)] = (
                harm_payoff(params, a, row_harm),
                harm_payoff(params, b, col_harm),
            )
    return StageGame(payoffs=table)


def nash_equilibria(stage: StageGame) -> list[tuple[Action, Action]]:
    """All pure action pairs with no strictly improving unilateral deviation.

    Scans the four cells; returned in a fixed (truth-first) order.
    """
    order = (Action.TRUE, Action.FAKE)
    equilibria = []
    for a in order:
        for b in order:
            row_u, col_u = stage.payoffs[(a, b)]
            row_best = all(stage.payoffs[(a2, b)][0] <= row_u for a2 in order)
            col_best = all(stage.payoffs[(a, b2)][1] <= col_u for b2 in order)
            if row_best and col_best:
                equilibria.append((a, b))
    return equilibria


@record
class MaxCompensationResult:
    provider: str
    tied: bool


def max_compensation(
    providers: Sequence[tuple[str, HarmPayoffParams]],
) -> MaxCompensationResult:
    """Provider whose truthful payoff is largest; ties to the lowest id, flagged.

    Raises:
        EmptyInput: no providers given.
    """
    if not providers:
        raise EmptyInput("no providers to compare")
    best = max(params.truth_payoff for _, params in providers)
    leaders = sorted(pid for pid, params in providers if params.truth_payoff == best)
    return MaxCompensationResult(provider=leaders[0], tied=len(leaders) > 1)


@record
class TournamentRow:
    strategy_a: str
    strategy_b: str
    rounds: int
    payoff_a: float
    payoff_b: float
    rounds_to_quota_a: int | None
    rounds_to_quota_b: int | None


def run_tournament(
    strategies: Sequence[Strategy],
    params: HarmPayoffParams = HarmPayoffParams(),
    rounds: int = GameSection.rounds,
    harm_rule: str = HARM_PER_OWN_FAKE,
    total_audience: float = GameSection.audience,
    seats: int = GameSection.seats,
    acceptance_rule: AcceptanceRule = AcceptanceRule(),
) -> list[TournamentRow]:
    """Round-robin over strategy pairs, self-play included.

    Rows are ordered by the lexicographic (name_a, name_b) pair so repeated
    runs produce identical output.
    """
    by_name = {s.name: s for s in sorted(strategies, key=lambda s: s.name)}
    out = []
    for name_a, name_b in combinations_with_replacement(by_name, 2):
        state = play_iterated(
            (by_name[name_a], by_name[name_b]),
            params=params,
            rounds=rounds,
            harm_rule=harm_rule,
            acceptance_rule=acceptance_rule,
        )
        out.append(
            TournamentRow(
                strategy_a=name_a,
                strategy_b=name_b,
                rounds=rounds,
                payoff_a=state.cumulative_payoffs[0],
                payoff_b=state.cumulative_payoffs[1],
                rounds_to_quota_a=rounds_to_quota(state, 0, total_audience, seats),
                rounds_to_quota_b=rounds_to_quota(state, 1, total_audience, seats),
            )
        )
    return out
