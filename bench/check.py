"""Output checks that do not call the module under test.

Each check reads the op's input files with its own small readers and tests
one cheap property of the CSV that must hold at any seed. Together with the
byte comparison against ``golden.json`` at the golden seed, these decide
whether an op failed.
"""

from __future__ import annotations

import csv
import io
import math
import os


class CheckFailed(Exception):
    pass


def read_scenario(path: str) -> dict[str, dict[str, str]]:
    """Scenario file as {section: {key: value}}; the preamble is section ''."""
    sections: dict[str, dict[str, str]] = {"": {}}
    current = sections[""]
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("["):
                current = sections.setdefault(line[1:-1].strip(), {})
                continue
            key, value = line.split("=", 1)
            current[key.strip()] = value.strip()
    return sections


def read_ballots(path: str) -> list[tuple[float, list[str]]]:
    ballots = []
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if line:
                weight, ranking = line.split(":", 1)
                ballots.append((float(weight), [c.strip() for c in ranking.split(">")]))
    return ballots


def _close(a: float, b: float, what: str, abs_tol: float = 1e-12) -> None:
    if not math.isclose(a, b, rel_tol=1e-9, abs_tol=abs_tol):
        raise CheckFailed(f"{what}: got {a!r}, expected {b!r}")


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _market(section: dict[str, str]) -> tuple[float, float, float]:
    return (float(section["supply_slope"]), float(section["demand_intercept"]),
            float(section["demand_slope"]))


def _quantity(a: float, b: float, c: float) -> float:
    return a * b / (a + c) if b > 0 else 0.0


def check_equilibrium(scn, rows, base):
    _expect([r[0] for r in rows] == ["fake", "true"], "equilibrium rows are not fake, true")
    for kind, price, quantity in rows:
        a, b, c = _market(scn[f"market.{kind}"])
        _close(float(price), b / (a + c), f"{kind} price")
        _close(float(quantity), a * b / (a + c), f"{kind} quantity")


def check_match(scn, rows, base):
    """A complete matching with no blocking pair, from the scenario's rank tables."""
    m = scn["matching"]
    providers, consumers = m["providers"].split(), m["consumers"].split()
    rank = {a: {x.strip(): i for i, x in enumerate(m[f"rank.{a}"].split(">"))}
            for a in providers + consumers}
    partner = {}
    for p, c, p_rank, c_rank in rows:
        _expect(p not in partner and c not in partner, f"({p}, {c}) reuses an agent")
        partner[p], partner[c] = c, p
        _expect(int(p_rank) == rank[p][c] + 1 and int(c_rank) == rank[c][p] + 1,
                f"({p}, {c}) ranks do not match the profile")
    _expect(len(rows) == min(len(providers), len(consumers)), "matching is not complete")
    for p in providers:
        mine = rank[p].get(partner.get(p), len(consumers))
        for c, i in rank[p].items():
            if i < mine and rank[c][p] < rank[c].get(partner.get(c), len(providers)):
                raise CheckFailed(f"blocking pair ({p}, {c})")


def check_game(scn, rows, base):
    """Row count, rounds column, and AlwaysTrue self-play paying truth_payoff x rounds."""
    g = scn["game"]
    rounds = int(g.get("rounds", "10"))
    names = set(g["strategies"].split())
    _expect(len(rows) == len(names) * (len(names) + 1) // 2, "wrong number of pairings")
    _expect(all(int(r[2]) == rounds for r in rows), "rounds column differs from the scenario")
    if "AlwaysTrue" in names:
        truth = float(scn.get("payoffs", {}).get("truth_payoff", "3"))
        row = next(r for r in rows if r[0] == r[1] == "AlwaysTrue")
        _close(float(row[3]), truth * rounds, "AlwaysTrue self-play payoff_a")
        _close(float(row[4]), truth * rounds, "AlwaysTrue self-play payoff_b")


def _ballots_of(scn, base):
    return read_ballots(os.path.join(base, scn["voting"]["ballots"]))


def check_vote_fptp(scn, rows, base):
    totals: dict[str, float] = {}
    for weight, ranking in _ballots_of(scn, base):
        for c in ranking:
            totals.setdefault(c, 0.0)
        totals[ranking[0]] += weight
    _expect([r[0] for r in rows] == sorted(totals), "candidate column differs from the ballots")
    best = max(totals.values())
    leaders = sorted(c for c, v in totals.items() if v == best)
    for cand, votes, winner, tied in rows:
        _close(float(votes), totals[cand], f"{cand} first preferences")
        _expect(winner == ("1" if cand == leaders[0] else "0"), f"{cand} winner flag")
        _expect(tied == ("1" if cand == leaders[0] and len(leaders) > 1 else "0"),
                f"{cand} tied flag")


def check_vote_meek(scn, rows, base):
    """Seats filled, and every round's totals plus exhausted weight equal the ballot weight."""
    ballots = _ballots_of(scn, base)
    weight = sum(w for w, _ in ballots)
    n_cands = len({c for _, ranking in ballots for c in ranking})
    by_round: dict[str, list[list[str]]] = {}
    for row in rows:
        by_round.setdefault(row[0], []).append(row)
    for number, group in by_round.items():
        _expect(len(group) == n_cands, f"round {number} does not list every candidate")
        held = sum(float(r[2]) for r in group) + float(group[0][5])
        _close(held, weight, f"round {number} totals + exhausted", abs_tol=1e-9)
    final = by_round[str(len(by_round))]
    seats = int(scn["voting"]["seats"])
    _expect(sum(r[6] == "elected" for r in final) == min(seats, n_cands),
            "final round does not fill the seats")


def check_dynamics(scn, rows, base):
    """Values against exp, a running harmonic sum and k**e."""
    d = scn["dynamics"]
    horizon = int(d.get("horizon", "20"))
    initial = float(d.get("initial_retention", "1"))
    decays = [float(x) for x in d.get("decay_grid", "0.1 0.3 0.5 1").split()]
    dim = float(d.get("diminishing_scale", "1"))
    comp = float(d.get("compounding_scale", "1"))
    e = float(d.get("compounding_exponent", "2"))
    expected = []
    for decay in decays:
        expected += [("retention", t, initial * math.exp(-decay * t)) for t in range(horizon + 1)]
    harmonic = [0.0]
    for k in range(1, horizon + 1):
        harmonic.append(harmonic[-1] + dim / k)
    expected += [("diminishing_utility", k, harmonic[k]) for k in range(horizon + 1)]
    expected += [("diminishing_marginal", k, dim / (k + 1)) for k in range(horizon)]
    expected += [("compounding_utility", k, comp * k**e) for k in range(horizon + 1)]
    expected += [("compounding_marginal", k, comp * ((k + 1) ** e - k**e))
                 for k in range(horizon)]
    _expect(len(rows) == len(expected), "wrong number of rows")
    for row, (series, x, value) in zip(rows, expected):
        _expect(row[0] == series and int(row[2]) == x, f"row {row[:3]} out of order")
        _close(float(row[3]), value, f"{series} at {x}")


def check_sweep(scn, rows, base):
    """Health before and after against the closed-form equilibrium quantities."""
    a = scn["analysis"]
    grid = [float(x) for x in a["reliability_grid"].split()]
    fake, true = _market(scn["market.fake"]), _market(scn["market.true"])
    after_fake = _market(scn.get("analysis.changed.market.fake") or scn["market.fake"])
    after_true = _market(scn.get("analysis.changed.market.true") or scn["market.true"])

    def health(f, t, r):
        q_fake = _quantity(f[0], f[1] * (1 - r), f[2])
        q_true = _quantity(t[0], t[1] * r, t[2])
        return q_true / (q_fake + q_true)

    _expect(len(rows) == len(grid), "one row per grid point expected")
    previous = None
    for row, r in zip(rows, grid):
        _close(float(row[0]), r, "reliability")
        _close(float(row[1]), health(fake, true, r), f"health_before at {r}")
        after = health(after_fake, after_true, r)
        _close(float(row[2]), after, f"health_after at {r}")
        if previous is None:
            _expect(row[3] == "", "first marginal must be blank")
        else:
            _close(float(row[3]), after - previous, f"marginal at {r}", abs_tol=1e-9)
        previous = after


def check_path(scn, rows, base):
    """Cost equals a dynamic programme over the edges in file order; the path is real."""
    a = scn["analysis"]
    edges: dict[tuple[str, str], float] = {}
    with open(os.path.join(base, a["graph"]), encoding="utf-8") as f:
        for raw in f:
            parts = raw.split("#", 1)[0].split()
            if parts:
                key = (parts[0], parts[1])
                edges[key] = min(float(parts[2]), edges.get(key, math.inf))
    best = {a["source"]: 0.0}
    changed = True
    while changed:  # one sweep suffices when edges are listed layer by layer
        changed = False
        for (u, v), cost in edges.items():
            if u in best and best[u] + cost < best.get(v, math.inf):
                best[v] = best[u] + cost
                changed = True
    _expect(len(rows) == 1, "one row expected")
    cost, path = float(rows[0][0]), rows[0][1].split(">")
    _close(cost, best[a["target"]], "path cost", abs_tol=1e-9)
    _expect(path[0] == a["source"] and path[-1] == a["target"], "path endpoints")
    hops = [edges.get(hop) for hop in zip(path, path[1:])]
    _expect(None not in hops, "path uses a missing edge")
    _close(sum(hops), cost, "path edge sum", abs_tol=1e-9)


CHECKS = {
    "equilibrium": ("kind,price,quantity", check_equilibrium),
    "match": ("provider,consumer,provider_rank,consumer_rank", check_match),
    "game": ("strategy_a,strategy_b,rounds,payoff_a,payoff_b,"
             "rounds_to_quota_a,rounds_to_quota_b", check_game),
    "vote-fptp": ("candidate,first_preference_votes,winner,tied", check_vote_fptp),
    "vote-meek": ("round,candidate,total,keep_factor,quota,exhausted,status", check_vote_meek),
    "dynamics": ("series,parameter,x,value", check_dynamics),
    "sweep": ("reliability,health_before,health_after,marginal", check_sweep),
    "path": ("total_cost,path", check_path),
}


def check_csv(subcommand: str, scenario_path: str, data: bytes) -> None:
    """Raise CheckFailed unless the CSV bytes pass the subcommand's check."""
    try:
        header, check = CHECKS[subcommand]
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        _expect(rows and ",".join(rows[0]) == header, "wrong header")
        check(read_scenario(scenario_path), rows[1:],
              os.path.dirname(os.path.abspath(scenario_path)))
    except (ValueError, KeyError, IndexError, StopIteration, ZeroDivisionError) as exc:
        raise CheckFailed(f"unreadable output: {exc!r}") from None
