import random
from fractions import Fraction

import pytest

from oracles import cheapest_simple_path, min_cost_spread_path_by_name

from infomarket.analysis import (
    HealthCurve,
    MarketScenario,
    MarketState,
    SpreadGraph,
    comparative_sweep,
    graph_from_edges,
    market_health,
    min_cost_spread_path,
    parse_spread_graph,
    reliability_marginal_contribution,
    state_at_reliability,
)
from infomarket.errors import NoMarket, ParseError, TooFewPoints, Unreachable
from infomarket.market import Equilibrium, MarketParams


def eq(quantity):
    return Equilibrium(price=1.0, quantity=quantity)


class TestMarketHealth:
    def test_pure_markets(self):
        assert market_health(MarketState(fake=None, true=eq(5))) == 1.0
        assert market_health(MarketState(fake=eq(5), true=None)) == 0.0

    def test_symmetric(self):
        assert market_health(MarketState(fake=eq(4), true=eq(4))) == 0.5

    def test_no_market(self):
        with pytest.raises(NoMarket):
            market_health(MarketState(fake=None, true=None))

    def test_scale_invariance_exact(self):
        q_true, q_fake = Fraction(7, 3), Fraction(5, 2)
        base = market_health(MarketState(fake=eq(q_fake), true=eq(q_true)))
        for lam in (Fraction(2), Fraction(9, 7), Fraction(1, 13)):
            scaled = market_health(
                MarketState(fake=eq(lam * q_fake), true=eq(lam * q_true))
            )
            assert scaled == base

    def test_reliability_bounds(self):
        with pytest.raises(ValueError):
            MarketState(fake=None, true=eq(1), reliability=1.5)


BASE = MarketScenario(fake=MarketParams(1, 10, 1), true=MarketParams(1, 8, 1))


class TestComparativeSweep:
    def test_identical_scenarios_identical_curves(self):
        grid = (0.1, 0.4, 0.9)
        before, after = comparative_sweep(BASE, BASE, grid)
        assert before == after
        assert before.reliabilities == grid

    def test_cheaper_deception_supply_lowers_health_everywhere(self):
        # Halving the deceptive supply slope shrinks its traded quantity, so
        # the after-curve dominates the before-curve pointwise.
        changed = MarketScenario(fake=MarketParams(0.5, 10, 1), true=BASE.true)
        grid = tuple(i / 10 for i in range(11))
        before, after = comparative_sweep(BASE, changed, grid)
        assert all(b2 >= b1 for b1, b2 in zip(before.scores, after.scores))

    def test_single_point_grid(self):
        before, _ = comparative_sweep(BASE, BASE, (0.5,))
        state = state_at_reliability(BASE, 0.5)
        assert before.points == ((0.5, market_health(state)),)

    def test_endpoints(self):
        before, _ = comparative_sweep(BASE, BASE, (0.0, 1.0))
        assert before.scores == (0.0, 1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            comparative_sweep(BASE, BASE, ())
        with pytest.raises(ValueError):
            comparative_sweep(BASE, BASE, (0.5, 0.2))
        with pytest.raises(ValueError):
            comparative_sweep(BASE, BASE, (0.0, 1.5))


class TestMarginalContribution:
    def test_constant_curve(self):
        curve = HealthCurve(points=((0.0, 0.4), (0.5, 0.4), (1.0, 0.4)))
        assert reliability_marginal_contribution(curve) == [(0.5, 0.0), (1.0, 0.0)]

    def test_two_point_curve(self):
        curve = HealthCurve(points=((0.0, 0.2), (1.0, 0.8)))
        [(r, delta)] = reliability_marginal_contribution(curve)
        assert (r, delta) == (1.0, pytest.approx(0.6))

    def test_telescoping_exact(self):
        scores = [Fraction(1, d) for d in (13, 7, 5, 3, 2)]
        grid = [Fraction(i, 4) for i in range(5)]
        curve = HealthCurve(points=tuple(zip(grid, scores)))
        deltas = reliability_marginal_contribution(curve)
        assert sum(d for _, d in deltas) == scores[-1] - scores[0]

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            reliability_marginal_contribution(HealthCurve(points=((0.5, 0.5),)))

    def test_curve_validation(self):
        with pytest.raises(ValueError):
            HealthCurve(points=((0.5, 0.5), (0.5, 0.6)))
        with pytest.raises(ValueError):
            HealthCurve(points=((0.0, 1.2),))


class TestSpreadPath:
    def test_single_edge(self):
        g = graph_from_edges([("A", "B", 3.0)])
        assert min_cost_spread_path(g, "A", "B") == (3.0, ["A", "B"])

    def test_triangle(self):
        g = graph_from_edges([("A", "B", 1.0), ("B", "C", 1.0), ("A", "C", 3.0)])
        assert min_cost_spread_path(g, "A", "C") == (2.0, ["A", "B", "C"])

    def test_unreachable(self):
        g = SpreadGraph(nodes=("A", "B", "C"), edges=(("A", "B", 1.0),))
        with pytest.raises(Unreachable):
            min_cost_spread_path(g, "A", "C")

    def test_source_equals_target(self):
        g = graph_from_edges([("A", "B", 1.0)])
        assert min_cost_spread_path(g, "A", "A") == (0.0, ["A"])

    def test_lexicographic_tie_break(self):
        g = graph_from_edges([
            ("s", "m", 1.0),
            ("s", "k", 1.0),
            ("m", "t", 1.0),
            ("k", "t", 1.0),
        ])
        assert min_cost_spread_path(g, "s", "t") == (2.0, ["s", "k", "t"])

    def test_unknown_endpoint(self):
        g = graph_from_edges([("A", "B", 1.0)])
        with pytest.raises(ValueError):
            min_cost_spread_path(g, "A", "Z")

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(1231)
        for _ in range(300):
            n = rng.randint(2, 8)
            nodes = [f"n{i}" for i in range(n)]
            edges = []
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.45:
                        edges.append((u, v, float(rng.randint(0, 9))))
            g = SpreadGraph(nodes=tuple(nodes), edges=tuple(edges))
            expected = cheapest_simple_path(edges, "n0", nodes[-1])
            if expected is None:
                with pytest.raises(Unreachable):
                    min_cost_spread_path(g, "n0", nodes[-1])
            else:
                assert min_cost_spread_path(g, "n0", nodes[-1]) == expected

    def test_matches_name_keyed_search_bit_for_bit(self):
        # Zero, repeated and fractional costs (0.1 + 0.2 != 0.3) make many
        # cost ties; ids are declared out of name order ("v10" < "v2").
        rng = random.Random(8080)
        costs = (0.0, 0.1, 0.2, 0.3, 0.3, 1.0, 2.0)
        outcomes = {"route": 0, "unreachable": 0, "source is target": 0}

        def search(fn, graph, source, target):
            try:
                return repr(fn(graph, source, target))
            except Unreachable as exc:
                return f"Unreachable: {exc}"

        for _ in range(1200):
            n = rng.randint(1, 14)
            nodes = [f"v{i}" for i in range(n)]
            rng.shuffle(nodes)
            density = rng.choice((0.15, 0.3, 0.6))
            edges = []
            for u in nodes:
                for v in nodes:
                    odds = density if u != v else 0.0
                    while rng.random() < odds:  # sometimes parallel edges
                        edges.append((u, v, rng.choice(costs)))
                        odds /= 3
            graph = SpreadGraph(nodes=tuple(nodes), edges=tuple(edges))
            assert graph.nodes == tuple(nodes)  # declared order is kept, not sorted
            source, target = rng.choice(nodes), rng.choice(nodes)
            got = search(min_cost_spread_path, graph, source, target)
            assert got == search(min_cost_spread_path_by_name, graph, source, target)
            if source == target:
                outcomes["source is target"] += 1
            elif got.startswith("Unreachable"):
                outcomes["unreachable"] += 1
            else:
                outcomes["route"] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_ties_break_among_tight_routes_only(self):
        # Both routes fold to exactly 2**54, but s>a is not tight: x's float
        # distance is 1, reached only through b. The search returns the least
        # node sequence among tight routes; the exhaustive oracle compares
        # whole-route sums and so prefers s>a>x>t, a known difference.
        edges = (("s", "a", 1 + 2.0**-52), ("s", "b", 1.0), ("a", "x", 0.0),
                 ("b", "x", 0.0), ("x", "t", 2.0**54))
        g = SpreadGraph(nodes=("s", "a", "b", "x", "t"), edges=edges)
        tight = (2.0**54, ["s", "b", "x", "t"])
        assert min_cost_spread_path(g, "s", "t") == tight
        assert min_cost_spread_path_by_name(g, "s", "t") == tight
        assert cheapest_simple_path(edges, "s", "t") == (2.0**54, ["s", "a", "x", "t"])

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            SpreadGraph(nodes=("A",), edges=(("A", "A", 1.0),))
        for cost in (-2.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="must be finite and >= 0"):
                SpreadGraph(nodes=("A", "B"), edges=(("A", "B", cost),))
        with pytest.raises(ValueError):
            SpreadGraph(nodes=("A",), edges=(("A", "B", 1.0),))

    @pytest.mark.parametrize("nodes, edges, message", [
        (("A", "B", "A"), (("B", "B", 1.0),), "duplicate node ids"),
        (("B", "A"), (("A", "B", 1.0), ("B", "B", -1.0), ("A", "Z", 1.0)),
         "self-loop on 'B'"),
        (("B", "A"), (("A", "B", 1.0), ("Z", "A", -1.0), ("A", "A", 1.0)),
         "edge ('Z', 'A') uses undeclared nodes"),
        (("B", "A"), (("B", "A", float("nan")), ("A", "A", 1.0), ("A", "Z", 1.0)),
         "cost on edge ('B', 'A') must be finite and >= 0, got nan"),
        (("A", "B"), (("A", "B", 0.0), ("B", "A", -0.5), ("B", "A", float("inf"))),
         "cost on edge ('B', 'A') must be finite and >= 0, got -0.5"),
    ], ids=["duplicate-node", "self-loop", "undeclared-node", "nan-cost", "negative-cost"])
    def test_graph_error_names_the_first_bad_edge(self, nodes, edges, message):
        with pytest.raises(ValueError) as exc:
            SpreadGraph(nodes=nodes, edges=edges)
        assert str(exc.value) == message

    def test_numbering_is_not_part_of_the_value(self):
        edges = (("b", "a", 1.0), ("a", "c", 2.0))
        g = SpreadGraph(nodes=("c", "b", "a"), edges=edges)
        assert g.nodes == ("c", "b", "a") and g.edges == edges
        assert repr(g) == f"SpreadGraph(nodes=('c', 'b', 'a'), edges={edges!r})"
        twin = SpreadGraph(nodes=("c", "b", "a"), edges=edges)
        assert g == twin and hash(g) == hash(twin)
        assert g != SpreadGraph(nodes=("a", "b", "c"), edges=edges)

    def test_parse_graph(self):
        g = parse_spread_graph(["# comment", "a b 1.5", "", "b c 2"])
        assert g.edges == (("a", "b", 1.5), ("b", "c", 2.0))
        with pytest.raises(ParseError):
            parse_spread_graph(["a b"])
        with pytest.raises(ParseError):
            parse_spread_graph(["a b x"])
