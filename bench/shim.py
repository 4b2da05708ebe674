"""Traced CLI run: wrap the modules' public functions, run ``cli.main``, dump spans.

Usage::

    PYTHONPATH=src python bench/shim.py TRACE.json OP_ID SUBCOMMAND --scenario F --out D

The wrappers replace module attributes where callers look them up, so the
program's own code is untouched and writes the same CSV bytes. Calls at the
cli -> module boundary become spans (name, start, end, parent, op id, self
time); hot nested calls are only counted and summed. Everything is held in
memory and written to TRACE.json when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from infomarket import analysis, cli, dynamics, game, market, matching, voting

clock = time.perf_counter


# (module, attribute, span name, counter hook) for calls from cli into a module.
# A hook maps the call's arguments and result to the counts it adds.
SPANS = (
    (cli, "load_scenario", "scenario.load", None),
    (voting, "load_ballot_file", "voting.load_ballot_file",
     lambda args, r: {"voting.ballots": len(r),
                      "voting.distinct_rankings": len({b.ranking for b in r})}),
    (voting, "meek_count", "voting.meek_count",
     lambda args, r: {"voting.meek_rounds": len(r.rounds)}),
    (voting, "first_preference_totals", "voting.first_preference_totals", None),
    (voting, "fptp_winner", "voting.fptp_winner", None),
    (matching, "gale_shapley", "matching.gale_shapley",
     lambda args, r: {"matching.n": len(args[0].providers)}),
    (analysis, "comparative_sweep", "analysis.comparative_sweep",
     lambda args, r: {"analysis.grid_points": len(args[2])}),
    (analysis, "load_spread_graph", "analysis.load_spread_graph",
     lambda args, r: {"analysis.edges": len(r.edges)}),
    (analysis, "min_cost_spread_path", "analysis.min_cost_spread_path",
     lambda args, r: {"analysis.path_hops": len(r[1]) - 1}),
    (game, "run_tournament", "game.run_tournament",
     lambda args, r: {"game.match_rounds": sum(row.rounds for row in r)}),
)

# (module, attribute, name) for hot calls that are aggregated into count + time.
AGGREGATED = (
    (market, "equilibrium_closed_form", "market.equilibrium_closed_form"),
    (analysis, "equilibrium_closed_form", "market.equilibrium_closed_form"),
    (game, "harm_payoff", "payoffs.harm_payoff"),
    (dynamics, "utility", "dynamics.utility"),
    (dynamics, "info_marginal_contribution", "dynamics.info_marginal_contribution"),
    (dynamics, "retention", "dynamics.retention"),
)


class Tracer:
    """Spans and aggregates of one op, with self time = own time minus wrapped children."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list[dict] = []
        self.aggregates: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.stack: list[list] = []  # open calls: [span index or None, child seconds]

    def wrap(self, fn, name: str, aggregate: bool, hook=None):
        def traced(*args, **kwargs):
            span = None
            if not aggregate:
                parents = [s for s, _ in self.stack if s is not None]
                span = len(self.spans)
                self.spans.append({"name": name, "op": self.op,
                                   "parent": parents[-1] if parents else None})
            frame = [span, 0.0]
            self.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += end - start
                if aggregate:
                    agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += end - start
                    agg[2] += end - start - frame[1]
                else:
                    self.spans[span].update(start=start, end=end, self=end - start - frame[1])
            if hook is not None:
                self.counts.update(hook(args, result))
                if self.stack:  # counting is tracer work: keep it out of the caller's self time
                    self.stack[-1][1] += clock() - end
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, hook in SPANS:
            setattr(module, attr, self.wrap(getattr(module, attr), name, False, hook))
        for module, attr, name in AGGREGATED:
            setattr(module, attr, self.wrap(getattr(module, attr), name, True))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "aggregates": self.aggregates,
                       "counts": self.counts}, f)


def main(argv: list[str]) -> int:
    trace_path, op, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(op)
    tracer.install()
    try:
        return tracer.wrap(cli.main, "cli.main", False)(cli_argv)
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
