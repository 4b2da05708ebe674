"""Seeded input generator for the benchmark workloads.

Every generated input depends only on the seed: the same seed writes the same
bytes. The seed relabels candidates, agents and channels and draws the noise
around a fixed shape, so the amount of work stays nearly the same from seed to
seed while the inputs differ. Each writer returns the descriptors of what it
wrote (ballots, distinct rankings, n, edges, ...), so a timing can be traced
to an input property.
"""

from __future__ import annotations

import math
import os
import random


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    """n distinct ids in a seed-dependent order; the width keeps them sortable."""
    labels = rng.sample(range(10 * n), n)
    width = len(str(10 * n - 1))
    return [f"{prefix}{x:0{width}d}" for x in labels]


def _write(path: str, text: str) -> int:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)
    return len(text.encode("utf-8"))


def _ballot_file(path: str, ballots: list[tuple[str, ...]]) -> dict:
    _write(path, "".join(f"1 : {' > '.join(b)}\n" for b in ballots))
    return {
        "ballots": len(ballots),
        "distinct_rankings": len(set(ballots)),
        "distinct_2_prefixes": len({b[:2] for b in ballots}),
    }


def _perturb(rng: random.Random, order: list[str], max_swaps: int) -> list[str]:
    ballot = list(order)
    for _ in range(rng.randint(0, max_swaps)):
        i = rng.randrange(len(ballot) - 1)
        ballot[i], ballot[i + 1] = ballot[i + 1], ballot[i]
    return ballot


def party_election(rng: random.Random, n_ballots: int, n_cands: int, parties: int):
    """Ballots drawn around a few party orderings: many share long prefixes.

    Party p lists its own bloc first, then the next bloc, then the rest. Party
    sizes are fixed shares, so only the labels and the noise vary by seed.
    """
    cands = _names(rng, "c", n_cands)
    bloc = n_cands // parties
    orders = []
    for p in range(parties):
        own = cands[p * bloc:(p + 1) * bloc]
        ally = cands[((p + 1) % parties) * bloc:((p + 1) % parties + 1) * bloc]
        orders.append(own + ally + [c for c in cands if c not in own and c not in ally])
    shares = [0.34, 0.28, 0.22, 0.16][:parties]
    ballots = []
    for _ in range(n_ballots):
        order = rng.choices(orders, weights=shares)[0]
        ballot = _perturb(rng, order, 3)
        if rng.random() < 0.1:
            ballot.insert(0, ballot.pop(rng.randrange(len(ballot))))
        ballots.append(tuple(ballot[: rng.randint(2, n_cands)]))
    return ballots


def spread_election(rng: random.Random, n_ballots: int, n_cands: int, n_orders: int):
    """Ballots drawn around many orderings: few share more than a short prefix.

    The orderings come from a Plackett-Luce model with fixed candidate
    strengths and a fixed draw, so the count takes the same course at every
    seed; the seed picks the labels and which ordering each ballot follows.
    """
    shape = random.Random("spread_election")
    strength = [0.88**i for i in range(n_cands)]
    cands = _names(rng, "d", n_cands)
    orders = []
    for _ in range(n_orders):
        keys = [-math.log(shape.random()) / s for s in strength]
        orders.append([cands[i] for _, i in sorted(zip(keys, range(n_cands)))])
    ballots = []
    for _ in range(n_ballots):
        ballot = _perturb(rng, rng.choice(orders), 3)
        ballots.append(tuple(ballot[: rng.randint(4, n_cands)]))
    return ballots


def write_election(out_dir: str, name: str, ballots, seats: int) -> dict:
    info = _ballot_file(os.path.join(out_dir, f"{name}_ballots.txt"), ballots)
    text = (
        f"name = {name}\nseed = 0\n\n[voting]\n"
        f"ballots = {name}_ballots.txt\nseats = {seats}\ntolerance = 1e-09\n"
    )
    info["scenario_bytes"] = _write(os.path.join(out_dir, f"{name}.scn"), text)
    info["seats"] = seats
    return info


def write_game(out_dir: str, name: str, rng: random.Random, rounds: int) -> dict:
    strategies = ["AlwaysTrue", "AlwaysFake", "TitForTat", "GrimTrigger"]
    rng.shuffle(strategies)
    text = (
        f"name = {name}\nseed = 0\n\n[payoffs]\n"
        f"fake_base = {_fmt(rng.uniform(4.5, 6))}\n"
        f"harm_penalty = {_fmt(rng.uniform(0.5, 2.5))}\n"
        f"truth_payoff = {_fmt(rng.uniform(2, 4))}\n\n"
        f"[game]\nstrategies = {' '.join(strategies)}\nrounds = {rounds}\n"
        f"harm_rule = {rng.choice(['own', 'any'])}\n"
        f"audience = {_fmt(rng.uniform(50, 200) * rounds)}\nseats = {rng.randint(1, 4)}\n"
        f"true_acceptance = {_fmt(rng.uniform(1, 3))}\n"
        f"fake_acceptance = {_fmt(rng.uniform(2, 4))}\n"
    )
    size = _write(os.path.join(out_dir, f"{name}.scn"), text)
    return {"rounds": rounds, "scenario_bytes": size}


def write_dynamics(out_dir: str, name: str, rng: random.Random, horizon: int) -> dict:
    decays = sorted(rng.uniform(0.001, 1.5) for _ in range(4))
    text = (
        f"name = {name}\nseed = 0\n\n[dynamics]\n"
        f"initial_retention = {_fmt(rng.uniform(0.5, 1))}\n"
        f"decay_grid = {' '.join(_fmt(d) for d in decays)}\n"
        f"diminishing_scale = {_fmt(rng.uniform(0.5, 2))}\n"
        f"compounding_scale = {_fmt(rng.uniform(0.5, 2))}\n"
        f"compounding_exponent = {_fmt(rng.uniform(1.2, 2.5))}\n"
        f"horizon = {horizon}\n"
    )
    size = _write(os.path.join(out_dir, f"{name}.scn"), text)
    return {"horizon": horizon, "scenario_bytes": size}


def write_matching(out_dir: str, name: str, rng: random.Random, n: int) -> dict:
    """An n x n profile: a strong common quality plus private noise, so many proposals."""
    providers = _names(rng, "p", n)
    consumers = _names(rng, "q", n)

    def rankings(rankers, ranked):
        quality = {x: rng.gauss(0, 8) for x in ranked}
        out = {}
        for agent in rankers:
            score = {x: quality[x] + rng.gauss(0, 1) for x in ranked}
            out[agent] = sorted(ranked, key=score.__getitem__, reverse=True)
        return out

    p_prefs = rankings(providers, consumers)
    c_prefs = rankings(consumers, providers)
    lines = [f"name = {name}", "seed = 0", "", "[matching]",
             f"providers = {' '.join(providers)}", f"consumers = {' '.join(consumers)}"]
    lines += [f"rank.{a} = {' > '.join(r)}" for a, r in p_prefs.items()]
    lines += [f"rank.{a} = {' > '.join(r)}" for a, r in c_prefs.items()]
    size = _write(os.path.join(out_dir, f"{name}.scn"), "\n".join(lines) + "\n")
    return {"n": n, "scenario_bytes": size}


def write_market(out_dir: str, name: str, rng: random.Random, grid_points: int,
                 layers: int, width: int, fanout: int) -> dict:
    """Market, sweep grid and a layered spread graph in one scenario.

    The graph runs source -> layer 1 -> ... -> layer L -> target, each node
    linking to ``fanout`` nodes of the next layer, so every route has L + 1
    hops and the cheapest one can be found layer by layer.
    """
    def market():
        return (f"supply_slope = {_fmt(rng.uniform(0.5, 3))}\n"
                f"demand_intercept = {_fmt(rng.uniform(5, 15))}\n"
                f"demand_slope = {_fmt(rng.uniform(0.5, 3))}\n")

    nodes = _names(rng, "n", layers * width)
    grid = [i / (grid_points - 1) for i in range(grid_points)]
    edges = [f"src {v} {rng.randint(1, 99)}" for v in nodes[:width]]
    for layer in range(layers - 1):
        here = nodes[layer * width:(layer + 1) * width]
        there = nodes[(layer + 1) * width:(layer + 2) * width]
        for u in here:
            edges += [f"{u} {v} {rng.randint(1, 99)}" for v in rng.sample(there, fanout)]
    edges += [f"{u} dst {rng.randint(1, 99)}" for u in nodes[-width:]]
    graph_bytes = _write(os.path.join(out_dir, f"{name}_graph.txt"), "\n".join(edges) + "\n")
    text = (
        f"name = {name}\nseed = 0\n\n[market.fake]\n{market()}\n[market.true]\n{market()}\n"
        f"[analysis]\nreliability_grid = {' '.join(_fmt(r) for r in grid)}\n"
        f"graph = {name}_graph.txt\nsource = src\ntarget = dst\n\n"
        f"[analysis.changed.market.fake]\n{market()}"
    )
    return {
        "grid_points": grid_points,
        "nodes": len(nodes) + 2,
        "edges": len(edges),
        "path_hops": layers + 1,
        "graph_bytes": graph_bytes,
        "scenario_bytes": _write(os.path.join(out_dir, f"{name}.scn"), text),
    }
