"""Every subcommand on small generated scenarios, each CSV held to the benchmark's checks.

The shipped scenarios have 3 and 4 candidates, 3x3 profiles, 5-point grids and tiny
graphs, so the golden CSVs cannot show a runner that goes wrong only past those sizes:
a rank past 9, a tie among more than 4 candidates, a marginal past the fifth grid point,
a Meek status on a longer count. Here ``bench/gen.py``'s writers draw small inputs of
many sizes, and ``bench/check.py``'s ``check_csv`` holds each CSV to properties it
derives with its own readers, without calling the package.
"""

import random

import pytest

from meek_hashes import bench_module

from infomarket.cli import SUBCOMMANDS, main

gen, check = bench_module("gen"), bench_module("check")
SEEDS = range(40)


def write_scenarios(work, rng):
    """One seed's scenarios under work, as (path, subcommands) pairs. Each size is drawn
    where its writer accepts it: a party election needs at least 2 parties and a spread
    election at least 4 candidates, and a graph's fan-out is at most its width."""
    cands = rng.randint(4, 10)
    elections = {
        "party": gen.party_election(rng, rng.randint(5, 80), cands, rng.randint(2, 4)),
        "spread": gen.spread_election(rng, rng.randint(5, 80), cands, rng.randint(1, 8)),
    }
    for name, ballots in elections.items():
        gen.write_election(work, name, ballots, rng.randint(1, cands - 1))
    gen.write_game(work, "game", rng, rng.randint(1, 20))
    gen.write_dynamics(work, "dynamics", rng, rng.randint(1, 30))
    gen.write_matching(work, "match", rng, rng.randint(1, 12))
    width = rng.randint(1, 5)
    gen.write_market(work, "market", rng, rng.randint(2, 12), rng.randint(1, 6), width,
                     rng.randint(1, width))
    return [(work / "party.scn", ["vote-fptp", "vote-meek"]),
            (work / "spread.scn", ["vote-fptp", "vote-meek"]),
            (work / "game.scn", ["game"]), (work / "dynamics.scn", ["dynamics"]),
            (work / "match.scn", ["match"]),
            (work / "market.scn", ["equilibrium", "sweep", "path"])]


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Subcommand -> the generated scenarios it runs on."""
    runs = {subcommand: [] for subcommand in SUBCOMMANDS}
    for seed in SEEDS:
        work = tmp_path_factory.mktemp(f"seed{seed}")
        for path, subcommands in write_scenarios(work, random.Random(seed)):
            for subcommand in subcommands:
                runs[subcommand].append(path)
    return runs


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_runner_output_passes_the_bench_check(subcommand, generated, tmp_path):
    for path in generated[subcommand]:
        assert main([subcommand, "--scenario", str(path), "--out", str(tmp_path)]) == 0, path
        data = (tmp_path / f"{path.stem}_{subcommand}.csv").read_bytes()
        try:
            check.check_csv(subcommand, str(path), data)
        except check.CheckFailed as exc:
            pytest.fail(f"{path}: {exc}")
