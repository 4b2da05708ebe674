"""Market-health scoring, before/after parameter sweeps, and spread routing.

Health is the truthful share of total equilibrium consumption. Sweeps couple
an information-reliability level r to the two demand intercepts (truthful
demand scaled by r, deceptive demand by 1 - r) and trace health across a
grid, before and after a parameter change. The spread graph is a directed
channel network; a shortest-path search finds the cheapest route between two
channels, breaking ties toward the least node sequence among tight routes.
"""

import heapq
import math
from typing import Iterable, Sequence

from ._record import field, record, require
from .errors import (
    InfeasibleEquilibrium,
    NoMarket,
    ParseError,
    TooFewPoints,
    Unreachable,
)
from .market import Equilibrium, MarketParams, MarketScenario, equilibrium_closed_form
from .scenario import AnalysisSection, _keys, strictly_increasing


@record
class MarketState:
    """Solved (or infeasible) equilibria for both news types at one reliability."""

    fake: Equilibrium | None
    true: Equilibrium | None
    reliability: float = field(0.0, _keys(AnalysisSection)["reliability_grid"].metadata)


@record
class HealthCurve:
    """Health score sampled over strictly increasing reliability levels."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple((r, h) for r, h in self.points))
        strictly_increasing("reliability_grid", [r for r, _ in self.points])
        if any(not 0 <= h <= 1 for _, h in self.points):
            raise ValueError("health scores must lie in [0, 1]")

    @property
    def reliabilities(self):
        return tuple(r for r, _ in self.points)

    @property
    def scores(self):
        return tuple(h for _, h in self.points)


def market_health(state: MarketState):
    """Truthful share of equilibrium consumption, in [0, 1].

    Infeasible sides contribute zero quantity.

    Raises:
        NoMarket: both sides infeasible (or carrying zero quantity).
    """
    q_fake = state.fake.quantity if state.fake is not None else 0
    q_true = state.true.quantity if state.true is not None else 0
    total = q_fake + q_true
    if total == 0:
        raise NoMarket("neither news type trades at equilibrium")
    return q_true / total


def _solve_or_none(params: MarketParams) -> Equilibrium | None:
    try:
        return equilibrium_closed_form(params)
    except InfeasibleEquilibrium:
        return None


def state_at_reliability(scenario: MarketScenario, r: float) -> MarketState:
    """Markets with demand intercepts modulated by reliability r.

    Truthful demand keeps the fraction r of its intercept, deceptive demand
    the fraction 1 - r; a zeroed intercept makes that side infeasible.
    """
    fake_b = scenario.fake.demand_intercept * (1 - r)
    true_b = scenario.true.demand_intercept * r
    fake = _solve_or_none(
        MarketParams(scenario.fake.supply_slope, fake_b, scenario.fake.demand_slope)
    )
    true = _solve_or_none(
        MarketParams(scenario.true.supply_slope, true_b, scenario.true.demand_slope)
    )
    return MarketState(fake=fake, true=true, reliability=r)


def _quantity(params: MarketParams, intercept):
    """``equilibrium_closed_form``'s quantity by its float operations; the int 0 if infeasible."""
    a, c = params.supply_slope, params.demand_slope
    return 0 if intercept <= 0 else a * (intercept / (a + c))


def _health(scenario: MarketScenario, r):
    """``market_health(state_at_reliability(scenario, r))`` without building its objects."""
    q_fake = _quantity(scenario.fake, scenario.fake.demand_intercept * (1 - r))
    q_true = _quantity(scenario.true, scenario.true.demand_intercept * r)
    total = q_fake + q_true
    if total == 0:
        raise NoMarket("neither news type trades at equilibrium")
    return q_true / total


def comparative_sweep(
    base: MarketScenario,
    changed: MarketScenario,
    grid: Sequence[float],
) -> tuple[HealthCurve, HealthCurve]:
    """Health across the reliability grid before and after a parameter change, in closed form."""
    if not grid:
        raise ValueError("reliability grid must be nonempty")
    before = []
    after = []
    for r in grid:
        if not 0.0 <= r <= 1.0:
            MarketState(None, None, r)  # raises MarketState's range error for r
        before.append((r, _health(base, r)))
        after.append((r, _health(changed, r)))
    return HealthCurve(points=tuple(before)), HealthCurve(points=tuple(after))


def reliability_marginal_contribution(curve: HealthCurve) -> list[tuple[float, float]]:
    """Successive health differences, each paired with its right endpoint.

    Raises:
        TooFewPoints: fewer than two samples on the curve.
    """
    pts = curve.points
    if len(pts) < 2:
        raise TooFewPoints("need at least two points to difference")
    return [(pts[i + 1][0], pts[i + 1][1] - pts[i][1]) for i in range(len(pts) - 1)]


@record
class SpreadGraph:
    """Directed channel network with finite, nonnegative traversal costs."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        names = sorted(self.nodes)
        number = {name: i for i, name in enumerate(names)}
        if len(number) != len(names):
            raise ValueError("duplicate node ids")
        # Edge order does not matter: distinct (cost, path) keys alone fix the pop order.
        adjacency: list[list[tuple[int, float]]] = [[] for _ in names]
        for src, dst, cost in self.edges:
            if src == dst:
                raise ValueError(f"self-loop on {src!r}")
            i, j = number.get(src), number.get(dst)
            if i is None or j is None:
                raise ValueError(f"edge ({src!r}, {dst!r}) uses undeclared nodes")
            if not (type(cost) is float and 0 <= cost < math.inf):  # also false for nan
                require(f"cost on edge ({src!r}, {dst!r})", cost, ">=", 0, finite=True)
            adjacency[i].append((j, cost))
        # (names, number, adjacency) for min_cost_spread_path; an attribute, not a
        # field, so repr, == and hash leave it out
        object.__setattr__(self, "_index", (names, number, adjacency))


def graph_from_edges(edges: Iterable[tuple[str, str, float]]) -> SpreadGraph:
    """Build a graph whose node set is exactly the edge endpoints."""
    edges = tuple(edges)
    nodes = sorted({n for s, d, _ in edges for n in (s, d)})
    return SpreadGraph(nodes=tuple(nodes), edges=edges)


def parse_spread_graph(lines: Iterable[str]) -> SpreadGraph:
    """Parse edge-list text: one ``from to cost`` triple per line, # comments."""
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        parts = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not parts:
            continue
        if len(parts) != 3:
            raise ParseError(f"graph line {lineno}: expected 'from to cost'")
        try:
            cost = float(parts[2])
        except ValueError:
            raise ParseError(f"graph line {lineno}: bad cost {parts[2]!r}") from None
        edges.append((parts[0], parts[1], cost))
    try:
        return graph_from_edges(edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def load_spread_graph(path) -> SpreadGraph:
    with open(path, encoding="utf-8") as f:
        if f.read(1) != "\ufeff":  # a leading byte-order mark is not part of line 1
            f.seek(0)
        return parse_spread_graph(f)


# Stands in for the entry of a popped node: its cost of -1 is below any route's.
_POPPED = (-1.0, (), -1)


def min_cost_spread_path(
    graph: SpreadGraph, source: str, target: str
) -> tuple[float, list[str]]:
    """Cheapest route from source to target.

    Dijkstra's search over nonnegative costs. It returns the least node sequence
    among *tight* routes, on which every edge has ``dist[u] + w == dist[v]`` for
    the float distance ``dist`` from source; under rounding, a route that is not
    tight can fold to the same total. Keying the heap on (cost, path) makes that
    tie-break fall out of the pop order. The graph numbers its nodes in name
    order, so a path of numbers compares as its path of names. An entry is pushed
    only if it beats the best one already pushed for its node; the first pop per
    node is still the least (cost, path).

    Raises:
        Unreachable: no route exists.
    """
    names, number, adjacency = graph._index
    if source not in number or target not in number:
        raise ValueError(f"source/target must be graph nodes, got {source!r}, {target!r}")
    start, goal = number[source], number[target]
    entry = (0.0, (start,), start)
    best: list = [None] * len(names)  # node -> least entry pushed for it
    best[start] = entry
    heap = [entry]
    while heap:
        entry = heapq.heappop(heap)
        cost, path, node = entry
        if best[node] is not entry:
            continue  # superseded by a smaller entry, popped before this one
        if node == goal:
            return cost, [names[i] for i in path]
        best[node] = _POPPED  # frees the path; every later candidate loses to it
        for nbr, edge_cost in adjacency[node]:
            new_cost = cost + edge_cost
            held = best[nbr]
            # Skip unless (new_cost, path + (nbr,)) < held; paths are built only on cost ties.
            if held is not None and new_cost >= held[0]:
                if new_cost > held[0] or path + (nbr,) >= held[1]:
                    continue
            best[nbr] = pushed = (new_cost, path + (nbr,), nbr)
            heapq.heappush(heap, pushed)
    raise Unreachable(f"no route from {source!r} to {target!r}")
