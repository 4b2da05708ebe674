"""Command-line front end: run one subsystem of a scenario, emit one CSV.

Usage::

    infomarket [-h] --scenario SCENARIO --out OUT subcommand

Subcommands: equilibrium, match, game, vote-fptp, vote-meek, dynamics,
sweep, path. Output lands in ``<out>/<scenario-name>_<subcommand>.csv`` and
is byte-identical across reruns with the same inputs: a run reads only its
scenario and the files that scenario names. Each runner imports its own
subsystem, so a run loads only the modules it uses.

A run has four stages, and ``main`` owns each boundary: it parses the scenario,
then takes the runner's first yield, then the rest, then writes. Each runner is a
generator that checks its sections, reads its files and builds its inputs before
it yields its header, and calls no kernel until after it; then it yields each row
as plain values, and ``main`` writes every cell of the CSV. A refusal at any
stage writes no file.
"""

from __future__ import annotations

import argparse
import csv
import gc
import os
import sys
from math import isfinite

from .errors import InfoMarketError, ParseError
from .scenario import HarmPayoffParams, Scenario, format_number, load_scenario, resolve_path


def _require_section(scenario: Scenario, attr: str, section: str):
    value = getattr(scenario, attr)
    if value is None:
        raise ParseError(f"scenario {scenario.name!r} has no [{section}] section")
    return value


def _run_equilibrium(scenario, scenario_path):
    from . import market
    section = _require_section(scenario, "market", "market.fake] / [market.true")
    yield "kind", "price", "quantity"
    for kind, params in ((market.NewsType.FAKE, section.fake),
                         (market.NewsType.TRUE, section.true)):
        eq = market.equilibrium_closed_form(params)
        yield kind.value, eq.price, eq.quantity


def _run_match(scenario, scenario_path):
    from . import matching
    profile = _require_section(scenario, "matching", "matching")
    yield "provider", "consumer", "provider_rank", "consumer_rank"
    result = matching.gale_shapley(profile, proposing=matching.PROVIDERS)
    for p, c in result.as_sorted_pairs():
        yield p, c, profile.provider_prefs[p].index(c) + 1, profile.consumer_prefs[c].index(p) + 1


def _run_game(scenario, scenario_path):
    from . import game
    section = _require_section(scenario, "game", "game")
    params = scenario.payoffs if scenario.payoffs is not None else HarmPayoffParams()
    strategies = [game.strategy_by_name(name) for name in section.strategies]
    yield ("strategy_a", "strategy_b", "rounds",
           "payoff_a", "payoff_b", "rounds_to_quota_a", "rounds_to_quota_b")
    table = game.run_tournament(
        strategies,
        params=params,
        rounds=section.rounds,
        harm_rule=section.harm_rule,
        total_audience=section.audience,
        seats=section.seats,
        acceptance_rule=game.AcceptanceRule(
            true_gain=section.true_acceptance, fake_gain=section.fake_acceptance
        ),
    )
    for r in table:
        yield (r.strategy_a, r.strategy_b, r.rounds, r.payoff_a, r.payoff_b,
               r.rounds_to_quota_a, r.rounds_to_quota_b)


def _load_ballots(scenario, scenario_path):
    from . import voting
    section = _require_section(scenario, "voting", "voting")
    ballots = voting.load_ballot_file(resolve_path(scenario_path, section.ballots))
    candidates = sorted({c for b in ballots for c in b.ranking})
    if not candidates:
        raise ParseError("ballot file holds no rankings")
    return section, ballots, candidates


def _run_vote_fptp(scenario, scenario_path):
    from . import voting
    _, ballots, candidates = _load_ballots(scenario, scenario_path)
    yield "candidate", "first_preference_votes", "winner", "tied"
    totals = voting.first_preference_totals(ballots, candidates)
    result = voting.fptp_winner(totals)
    for cand in candidates:
        is_winner = cand == result.winner
        yield cand, totals[cand], int(is_winner), int(is_winner and result.tied)


def _run_vote_meek(scenario, scenario_path):
    from . import voting
    section, ballots, candidates = _load_ballots(scenario, scenario_path)
    yield "round", "candidate", "total", "keep_factor", "quota", "exhausted", "status"
    result = voting.meek_count(ballots, candidates, section.seats, section.tolerance)
    status = {c: "hopeful" for c in candidates}
    for round_no, rnd in enumerate(result.rounds, start=1):
        for event in rnd.events:
            status[event.candidate] = event.kind.value
        for cand in candidates:
            yield (round_no, cand, rnd.totals[cand], rnd.keep_factors[cand],
                   rnd.quota, rnd.exhausted, status[cand])


def _run_dynamics(scenario, scenario_path):
    from . import dynamics
    section = _require_section(scenario, "dynamics", "dynamics")
    retentions = [dynamics.RetentionParams(initial=section.initial_retention, decay=decay)
                  for decay in section.decay_grid]
    curves = (
        ("diminishing_utility", dynamics.diminishing_curve(section.diminishing_scale)),
        ("compounding_utility",
         dynamics.compounding_curve(section.compounding_scale, section.compounding_exponent)),
    )
    yield "series", "parameter", "x", "value"
    for params in retentions:
        for t in range(section.horizon + 1):
            yield "retention", params.decay, t, dynamics.retention(params, t)
    for label, curve in curves:
        for k in range(section.horizon + 1):
            yield label, None, k, dynamics.utility(curve, k)
        marginal_label = label.replace("_utility", "_marginal")
        for k in range(section.horizon):
            yield marginal_label, None, k, dynamics.info_marginal_contribution(curve, k)


def _run_sweep(scenario, scenario_path):
    from . import analysis
    base = _require_section(scenario, "market", "market.fake] / [market.true")
    analysis_section = _require_section(scenario, "analysis", "analysis")
    grid = analysis_section.reliability_grid
    if not grid:
        raise ParseError("no reliability grid: set [analysis] reliability_grid")
    changed = analysis.MarketScenario(
        fake=analysis_section.changed_fake or base.fake,
        true=analysis_section.changed_true or base.true,
    )
    yield "reliability", "health_before", "health_after", "marginal"
    before, after = analysis.comparative_sweep(base, changed, grid)
    # The first point has no left neighbour, so its marginal cell is empty.
    marginals = [None]
    if len(grid) > 1:
        marginals += [m for _, m in analysis.reliability_marginal_contribution(after)]
    for (r, h_before), (_, h_after), marginal in zip(before.points, after.points, marginals):
        yield r, h_before, h_after, marginal


def _run_path(scenario, scenario_path):
    from . import analysis
    section = _require_section(scenario, "analysis", "analysis")
    if not (section.graph and section.source and section.target):
        raise ParseError("[analysis] needs graph, source and target for the path subcommand")
    graph = analysis.load_spread_graph(resolve_path(scenario_path, section.graph))
    yield "total_cost", "path"
    cost, path = analysis.min_cost_spread_path(graph, section.source, section.target)
    yield cost, ">".join(path)


_RUNNERS = {
    "equilibrium": _run_equilibrium,
    "match": _run_match,
    "game": _run_game,
    "vote-fptp": _run_vote_fptp,
    "vote-meek": _run_vote_meek,
    "dynamics": _run_dynamics,
    "sweep": _run_sweep,
    "path": _run_path,
}

SUBCOMMANDS = tuple(_RUNNERS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infomarket",
        description="Deterministic information-market simulations, one CSV per run.",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS, metavar="subcommand",
                        help="the pipeline to run, one of: %(choices)s")
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--out", required=True, help="output directory for the CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A run needs no cyclic garbage freed; the caller's setting comes back in ``finally``.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        scenario = load_scenario(args.scenario)  # parse
        run = _RUNNERS[args.subcommand](scenario, args.scenario)
        header = next(run)  # load: the runner reads its files and builds its inputs
        body = list(run)  # compute: the runner calls its kernels
        # Write. Floats are written as format_number writes them; it sees only inf/nan and
        # raises before --out exists. csv writes str and int as text and None as "".
        for i, row in enumerate(body):
            body[i] = [(f"{v:.12g}" if isfinite(v) else format_number(v))
                       if isinstance(v, float) else v for v in row]
        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, f"{scenario.name}_{args.subcommand}.csv")
        with open(out_path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(body)
    except InfoMarketError as exc:
        print(f"error [{exc.module}]: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error [input]: {exc}", file=sys.stderr)
        return 1
    except OverflowError:
        print("error [input]: a result is too large to compute: an input value is out of range",
              file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
