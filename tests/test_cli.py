import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

from infomarket.cli import SUBCOMMANDS, main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def run_cli(*argv):
    return main(list(argv))


def read(path):
    return path.read_bytes()


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_every_subcommand_succeeds_on_shipped_scenarios(
    subcommand, shipped_scenarios, tmp_path
):
    for scenario in shipped_scenarios:
        out = tmp_path / scenario.stem
        assert run_cli(subcommand, "--scenario", str(scenario), "--out", str(out)) == 0
        produced = list(out.glob(f"*_{subcommand}.csv"))
        assert len(produced) == 1
        assert produced[0].stat().st_size > 0


def test_rerun_is_byte_identical(shipped_scenarios, tmp_path):
    for scenario in shipped_scenarios:
        for subcommand in SUBCOMMANDS:
            first = tmp_path / "first"
            second = tmp_path / "second"
            assert run_cli(subcommand, "--scenario", str(scenario), "--out", str(first)) == 0
            assert run_cli(subcommand, "--scenario", str(scenario), "--out", str(second)) == 0
            name = f"{scenario.stem}_{subcommand}.csv"
            assert read(first / name) == read(second / name)


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_shipped_scenarios_reproduce_golden_csvs(subcommand, shipped_scenarios, tmp_path):
    for scenario in shipped_scenarios:
        assert run_cli(subcommand, "--scenario", str(scenario), "--out", str(tmp_path)) == 0
        name = f"{scenario.stem}_{subcommand}.csv"
        assert read(tmp_path / name) == read(GOLDEN_DIR / name), name


def refuse(*args, **kwargs):
    raise AssertionError("called outside its stage")


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_runner_reads_before_its_header_and_computes_after(
    subcommand, scenario_dir, tmp_path, monkeypatch
):
    from infomarket import analysis, cli, dynamics, game, market, matching, voting
    kernels = [
        (market, "equilibrium_closed_form"), (matching, "gale_shapley"),
        (game, "run_tournament"), (voting, "first_preference_totals"),
        (voting, "fptp_winner"), (voting, "meek_count"), (dynamics, "retention"),
        (dynamics, "utility"), (dynamics, "info_marginal_contribution"),
        (analysis, "comparative_sweep"), (analysis, "reliability_marginal_contribution"),
        (analysis, "min_cost_spread_path"),
    ]
    runner = cli._RUNNERS[subcommand]

    def staged(scenario, scenario_path):  # the runner, with each stage fenced off
        run = runner(scenario, scenario_path)
        with monkeypatch.context() as m:
            for module, name in kernels:
                m.setattr(module, name, refuse)
            header = next(run)
        with monkeypatch.context() as m:
            m.setattr("builtins.open", refuse)
            body = list(run)
        yield header
        yield from body

    monkeypatch.setitem(cli._RUNNERS, subcommand, staged)
    scenario = scenario_dir / "newsroom.scn"
    assert run_cli(subcommand, "--scenario", str(scenario), "--out", str(tmp_path)) == 0
    name = f"newsroom_{subcommand}.csv"
    assert read(tmp_path / name) == read(GOLDEN_DIR / name)


def test_equilibrium_csv_content(scenario_dir, tmp_path):
    scenario = scenario_dir / "newsroom.scn"
    assert run_cli("equilibrium", "--scenario", str(scenario), "--out", str(tmp_path)) == 0
    text = (tmp_path / "newsroom_equilibrium.csv").read_text()
    assert text == "kind,price,quantity\nfake,5,5\ntrue,4,4\n"


def test_vote_fptp_declares_winner(scenario_dir, tmp_path):
    scenario = scenario_dir / "newsroom.scn"
    assert run_cli("vote-fptp", "--scenario", str(scenario), "--out", str(tmp_path)) == 0
    lines = (tmp_path / "newsroom_vote-fptp.csv").read_text().splitlines()
    assert lines[0] == "candidate,first_preference_votes,winner,tied"
    winners = [line for line in lines[1:] if line.split(",")[2] == "1"]
    assert winners == ["A,10,1,0"]


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("renounce", "--scenario", "x", "--out", "y")
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err


def test_help_names_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: infomarket")
    assert all(name in out for name in SUBCOMMANDS) and len(SUBCOMMANDS) == 8


def test_missing_scenario_file_fails(tmp_path, capsys):
    assert run_cli("equilibrium", "--scenario", str(tmp_path / "nope.scn"),
                   "--out", str(tmp_path)) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("out, message", [
    ("a_file", "File exists"),
    ("a_file/sub", "Not a directory"),
    (".", "Is a directory"),  # where the CSV should go
], ids=["out_is_a_file", "out_under_a_file", "csv_is_a_directory"])
def test_unwritable_output_reported_in_one_line(out, message, scenario_dir, tmp_path, capsys):
    (tmp_path / "a_file").write_text("")
    (tmp_path / "newsroom_equilibrium.csv").mkdir()
    scenario = scenario_dir / "newsroom.scn"
    assert run_cli("equilibrium", "--scenario", str(scenario), "--out", str(tmp_path / out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [io]: ") and message in err and err.count("\n") == 1


def test_missing_section_fails_with_context(tmp_path, capsys):
    path = tmp_path / "partial.scn"
    path.write_text("name = partial\n[payoffs]\nfake_base = 5\n")
    assert run_cli("equilibrium", "--scenario", str(path), "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "error [scenario]" in err and "market" in err


def test_infeasible_market_surfaces_module_error(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text(
        "name = broken\n"
        "[market.fake]\nsupply_slope = 1\ndemand_intercept = -3\ndemand_slope = 1\n"
        "[market.true]\nsupply_slope = 1\ndemand_intercept = 8\ndemand_slope = 1\n"
    )
    assert run_cli("equilibrium", "--scenario", str(path), "--out", str(tmp_path)) == 1
    assert "error [market]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_market_coefficient_rejected(value, scenario_dir, tmp_path, capsys):
    text = (scenario_dir / "newsroom.scn").read_text()
    path = tmp_path / "newsroom.scn"
    path.write_text(text.replace("demand_intercept = 10", f"demand_intercept = {value}", 1))
    out = tmp_path / "out"
    assert run_cli("equilibrium", "--scenario", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error [scenario]" in err and "demand_intercept must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_bad_voting_tolerance_rejected(value, scenario_dir, tmp_path, capsys):
    text = (scenario_dir / "newsroom.scn").read_text()
    path = tmp_path / "newsroom.scn"
    path.write_text(text.replace("tolerance = 1e-09", f"tolerance = {value}", 1))
    for referenced in scenario_dir.glob("newsroom_*.txt"):
        shutil.copy(referenced, tmp_path)
    out = tmp_path / "out"
    assert run_cli("vote-meek", "--scenario", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error [scenario]" in err and "tolerance must be finite and >= 0" in err
    assert not out.exists()


@pytest.mark.parametrize("cost", ["inf", "nan"])
def test_non_finite_graph_cost_rejected(cost, tmp_path, capsys):
    (tmp_path / "route_graph.txt").write_text(f"a b {cost}\nb c 1\n")
    path = tmp_path / "route.scn"
    path.write_text("name = route\n[analysis]\ngraph = route_graph.txt\nsource = a\ntarget = c\n")
    out = tmp_path / "out"
    assert run_cli("path", "--scenario", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error [scenario]" in err and "must be finite and >= 0" in err
    assert not out.exists()


def edited_newsroom(scenario_dir, tmp_path, old, new):
    """newsroom.scn with one line replaced, next to copies of the files it references."""
    for referenced in scenario_dir.glob("newsroom_*.txt"):
        shutil.copy(referenced, tmp_path)
    path = tmp_path / "newsroom.scn"
    path.write_text((scenario_dir / "newsroom.scn").read_text().replace(old, new, 1))
    return path


@pytest.mark.parametrize("name", ["../escaped", "a/b", ".", ".."])
def test_scenario_name_that_is_not_a_file_name_writes_no_file(
    name, scenario_dir, tmp_path, capsys
):
    path = edited_newsroom(scenario_dir, tmp_path, "name = newsroom", f"name = {name}")
    out = tmp_path / "out"
    assert run_cli("equilibrium", "--scenario", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        f"error [scenario]: [preamble] name must be a file name, got {name!r}\n")
    assert not out.exists() and not list(tmp_path.rglob("*.csv"))


# Each run gets newsroom.scn without the line `removed` and a ballot file of comments only.
@pytest.mark.parametrize("subcommand, removed, message", [
    ("vote-fptp", "", "ballot file holds no rankings"),
    ("path", "graph = newsroom_graph.txt\n",
     "[analysis] needs graph, source and target for the path subcommand"),
], ids=["comment-only-ballots", "path-without-graph"])
def test_run_without_its_inputs_fails_cleanly(
    subcommand, removed, message, scenario_dir, tmp_path, capsys
):
    path = edited_newsroom(scenario_dir, tmp_path, removed, "")
    (tmp_path / "newsroom_ballots.txt").write_text("# no ballots yet\n\n")
    out = tmp_path / "out"
    assert run_cli(subcommand, "--scenario", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error [scenario]: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_game_audience_rejected(value, scenario_dir, tmp_path, capsys):
    path = edited_newsroom(scenario_dir, tmp_path, "audience = 100", f"audience = {value}")
    out = tmp_path / "out"
    assert run_cli("game", "--scenario", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error [scenario]" in err and "audience must be finite and > 0" in err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("diminishing_scale = 1", "diminishing_scale = nan"),
    ("compounding_exponent = 2", "compounding_exponent = inf"),
    ("decay_grid = 0.1 0.3 0.5 1", "decay_grid = 0.1 nan"),
    ("decay_grid = 0.1 0.3 0.5 1", "decay_grid = inf"),
    ("compounding_scale = 1", "compounding_scale = inf"),
])
def test_non_finite_dynamics_value_rejected(key, value, scenario_dir, tmp_path, capsys):
    path = edited_newsroom(scenario_dir, tmp_path, key, value)
    out = tmp_path / "out"
    assert run_cli("dynamics", "--scenario", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error [scenario]" in err and "must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    ("initial_retention = 1", "initial_retention = 2",
     "[dynamics] initial_retention must be finite and >= 0 and <= 1, got 2.0"),
    ("initial_retention = 1", "initial_retention = -0.5",
     "[dynamics] initial_retention must be finite and >= 0 and <= 1, got -0.5"),
    ("decay_grid = 0.1 0.3 0.5 1", "decay_grid = 0.1 -1",
     "[dynamics] decay_grid must be finite and >= 0, got -1.0"),
    ("diminishing_scale = 1", "diminishing_scale = -1",
     "[dynamics] diminishing_scale must be finite and >= 0, got -1.0"),
    ("compounding_scale = 1", "compounding_scale = -1",
     "[dynamics] compounding_scale must be finite and >= 0, got -1.0"),
    ("compounding_exponent = 2", "compounding_exponent = 1",
     "[dynamics] compounding_exponent must be finite and > 1, got 1.0"),
])
def test_out_of_range_dynamics_value_rejected_at_parse(
    old, new, message, scenario_dir, tmp_path, capsys
):
    path = edited_newsroom(scenario_dir, tmp_path, old, new)
    out = tmp_path / "out"
    for subcommand in ("dynamics", "equilibrium"):
        assert run_cli(subcommand, "--scenario", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [scenario]") and message in err
    assert not out.exists()


@pytest.mark.parametrize("old, new, message", [
    ("ballots = newsroom_ballots.txt\nseats = 2", "ballots = newsroom_ballots.txt\nseats = 0",
     "[voting] seats must be >= 1, got 0"),
    ("reliability_grid = 0 0.25 0.5 0.75 1", "reliability_grid = 0 2",
     "[analysis] reliability_grid must be finite and >= 0 and <= 1, got 2.0"),
])
def test_out_of_range_voting_and_analysis_value_rejected_at_parse(
    old, new, message, scenario_dir, tmp_path, capsys
):
    path = edited_newsroom(scenario_dir, tmp_path, old, new)
    out = tmp_path / "out"
    for subcommand in ("equilibrium", "vote-fptp", "vote-meek", "sweep"):
        assert run_cli(subcommand, "--scenario", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error [scenario]: {message}")
    assert not out.exists()


@pytest.mark.parametrize("old, new", [
    ("true_acceptance = 2", "true_acceptance = -1"),
    ("fake_acceptance = 3", "fake_acceptance = -1"),
], ids=["true_acceptance", "fake_acceptance"])
def test_negative_acceptance_gain_rejected_at_parse(old, new, scenario_dir, tmp_path, capsys):
    path = edited_newsroom(scenario_dir, tmp_path, old, new)
    key = old.split()[0]
    out = tmp_path / "out"
    for subcommand in SUBCOMMANDS:
        assert run_cli(subcommand, "--scenario", str(path), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err == f"error [scenario]: [game] {key} must be finite and >= 0, got -1.0\n"
    assert not out.exists()


@pytest.mark.parametrize("subcommand, old, new", [
    ("game", "truth_payoff = 3", "truth_payoff = 1e308"),
    ("game", "harm_penalty = 2", "harm_penalty = 1e308"),
    ("dynamics", "diminishing_scale = 1", "diminishing_scale = 1e308"),
    ("dynamics", "compounding_scale = 1", "compounding_scale = 1e308"),
    ("equilibrium", "supply_slope = 1\ndemand_intercept = 10\ndemand_slope = 1",
     "supply_slope = 1e-300\ndemand_intercept = 1e308\ndemand_slope = 1e-300"),
], ids=["truth_payoff", "harm_penalty", "diminishing_scale", "compounding_scale", "market.fake"])
def test_non_finite_result_writes_no_csv(subcommand, old, new, scenario_dir, tmp_path, capsys):
    path = edited_newsroom(scenario_dir, tmp_path, old, new)
    out = tmp_path / "out"
    assert run_cli(subcommand, "--scenario", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [input]: a result is ") and err.count("\n") == 1
    assert "not a finite number" in err
    assert not out.exists()


def test_overflowing_result_reported_in_one_line(scenario_dir, tmp_path, capsys):
    path = edited_newsroom(
        scenario_dir, tmp_path, "compounding_exponent = 2", "compounding_exponent = 400"
    )
    out = tmp_path / "out"
    assert run_cli("dynamics", "--scenario", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err == (
        "error [input]: a result is too large to compute: an input value is out of range\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("subcommand, old, new, message", [
    ("game", "fake_base = 5", "fake_base = nan", "[payoffs] fake_base must be finite"),
    ("game", "truth_payoff = 3", "truth_payoff = inf", "[payoffs] truth_payoff must be finite"),
    ("game", "true_acceptance = 2", "true_acceptance = nan",
     "[game] true_acceptance must be finite"),
])
def test_non_finite_scenario_number_rejected(
    subcommand, old, new, message, scenario_dir, tmp_path, capsys
):
    path = edited_newsroom(scenario_dir, tmp_path, old, new)
    out = tmp_path / "out"
    assert run_cli(subcommand, "--scenario", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error [scenario]" in err and message in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, old, section, key", [
    ("game", "strategies = AlwaysTrue AlwaysFake TitForTat GrimTrigger", "game", "strategies"),
    ("dynamics", "decay_grid = 0.1 0.3 0.5 1", "dynamics", "decay_grid"),
    ("vote-meek", "ballots = newsroom_ballots.txt", "voting", "ballots"),
])
def test_empty_scenario_value_rejected(
    subcommand, old, section, key, scenario_dir, tmp_path, capsys
):
    path = edited_newsroom(scenario_dir, tmp_path, old, f"{key} =")
    out = tmp_path / "out"
    assert run_cli(subcommand, "--scenario", str(path), "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "error [scenario]" in err and f"[{section}] {key} needs a value" in err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0.5 0.2", "0.5 0.5"])
def test_out_of_order_grid_is_named_before_a_point_with_no_market(
    grid, scenario_dir, tmp_path, capsys
):
    path = edited_newsroom(scenario_dir, tmp_path, "reliability_grid = 0 0.25 0.5 0.75 1",
                           f"reliability_grid = {grid}")
    # Both intercepts at -1: neither side trades at any reliability.
    text = path.read_text().replace("demand_intercept = 10", "demand_intercept = -1", 1)
    path.write_text(text.replace("demand_intercept = 8", "demand_intercept = -1"))
    first, second = grid.split()
    for subcommand in ("sweep", "equilibrium"):
        assert run_cli(subcommand, "--scenario", str(path), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == ("error [scenario]: [analysis] reliability_grid must be "
                                           f"strictly increasing, got {second} after {first}\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("scenario, code", [("newsroom.scn", 0), ("missing.scn", 1)],
                         ids=["success", "error"])
def test_main_restores_the_callers_gc_setting(enabled, scenario, code, scenario_dir, tmp_path):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        argv = ["path", "--scenario", str(scenario_dir / scenario), "--out", str(tmp_path)]
        assert run_cli(*argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_cli_import_does_not_load_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c",
         "import infomarket.cli, sys; assert 'numpy' not in sys.modules"],
        env=env, check=True, timeout=60,
    )


def test_cli_import_and_a_voting_run_load_no_market_modules(tmp_path):
    # scenario imports market, matching and payoffs only for the sections that need them.
    (tmp_path / "b.txt").write_text("1 : A > B\n2 : B\n")
    (tmp_path / "v.scn").write_text("name = v\n[voting]\nballots = b.txt\nseats = 1\n")
    argv = ["vote-fptp", "--scenario", str(tmp_path / "v.scn"), "--out", str(tmp_path)]
    code = ("import sys; from infomarket import cli; imported = ' '.join(sys.modules); "
            f"assert cli.main({argv!r}) == 0; print(imported, '|', ' '.join(sys.modules))")
    src = Path(__file__).resolve().parent.parent / "src"
    on_import, after_run = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split("|")
    unused = {f"infomarket.{name}" for name in ("market", "matching", "payoffs")}
    assert not set(on_import.split()) & unused
    assert not set(after_run.split()) & unused


# Subsystems each subcommand's run must not import.
NOT_IMPORTED_BY = {
    "equilibrium": {"game", "voting", "analysis", "dynamics"},
    "match": {"game", "voting", "analysis", "dynamics"},
    "vote-fptp": {"game", "analysis"},
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_run_loads_only_its_subcommands_modules(subcommand, scenario_dir, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [subcommand, "--scenario", str(scenario_dir / "newsroom.scn"), "--out", str(tmp_path)]
    code = ("import sys; from infomarket import cli; "
            f"assert cli.main({argv!r}) == 0; print(' '.join(sys.modules))")
    loaded = set(subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split())
    unused = {f"infomarket.{name}" for name in NOT_IMPORTED_BY.get(subcommand, ())}
    assert not loaded & (unused | {"logging", "numpy", "dataclasses", "inspect"})


def test_package_import_loads_no_dataclasses_or_inspect():
    src = Path(__file__).resolve().parent.parent / "src"
    modules = sorted(f"infomarket.{p.stem}" for p in (src / "infomarket").glob("*.py")
                     if p.stem != "__init__")
    code = (f"import sys, infomarket; [__import__(m) for m in {modules!r}]; "
            "print(' '.join(sys.modules))")
    loaded = set(subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split())
    assert set(modules) <= loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_package_attribute_loads_its_submodule_alone():
    # The package's __getattr__ imports a submodule the first time it is looked up.
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, infomarket; before = 'infomarket.voting' in sys.modules; "
            "module = infomarket.voting; "
            "print(before, module is sys.modules['infomarket.voting'], *sys.modules)")
    before, same, *loaded = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    kernels = {f"infomarket.{name}" for name in
               ("analysis", "dynamics", "game", "market", "matching", "payoffs")}
    assert (before, same) == ("False", "True")
    assert "infomarket.voting" in loaded and not set(loaded) & kernels


def test_no_source_line_is_longer_than_100_characters():
    src = Path(__file__).resolve().parent.parent / "src" / "infomarket"
    long = [f"{path.name}:{number}" for path in sorted(src.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 100]
    assert not long


PACKAGE_NAMES = set("""
    AcceptanceRule Action Ballot ConsumerParams CostSchedule CountRound CurveFamily
    ElectionResult Equilibrium GameState HarmPayoffParams HealthCurve MarketParams
    MarketScenario MarketState Matching NewsType PreferenceProfile ProviderParams
    RetentionParams Scenario SegmentLabel SpreadGraph Stability StabilityReport StageGame
    Strategy TournamentRow UtilityCurve analysis check_increment_profile comparative_sweep
    compensation compounding_curve consumer_payoff crossover_harm diminishing_curve
    droop_acceptance_reached droop_quota dynamics equilibrium_closed_form
    equilibrium_numeric errors fptp_winner gale_shapley game graph_from_edges harm_payoff
    info_marginal_contribution is_stable load_scenario marginal_contribution market
    market_health matching max_compensation meek_count min_cost_spread_path nash_equilibria
    parse_ballots parse_scenario payoffs play_iterated provider_payoff rankings_from_scores
    reliability_marginal_contribution retention run_tournament scenario segment
    segment_news serialize_scenario stability_cobweb strategy_by_name utility voting
""".split())


def test_lazy_package_exports_every_name():
    import infomarket

    assert len(infomarket.__all__) == 76 and set(infomarket.__all__) == PACKAGE_NAMES
    assert set(infomarket.__all__) <= set(dir(infomarket))
    for name in infomarket.__all__:
        value = getattr(infomarket, name)
        if isinstance(value, ModuleType):
            assert value is sys.modules[f"infomarket.{name}"]
        else:
            assert value.__module__.startswith("infomarket.")
    with pytest.raises(AttributeError, match="no_such_name"):
        infomarket.no_such_name


def test_grid_override_changes_sweep(scenario_dir, tmp_path):
    path = edited_newsroom(scenario_dir, tmp_path, "reliability_grid = 0 0.25 0.5 0.75 1",
                           "reliability_grid = 0.25 0.75")
    assert run_cli("sweep", "--scenario", str(path), "--out", str(tmp_path)) == 0
    lines = (tmp_path / "newsroom_sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0.25", "0.75"]


def test_one_point_grid_sweep_has_no_marginal(scenario_dir, tmp_path):
    path = edited_newsroom(scenario_dir, tmp_path, "reliability_grid = 0 0.25 0.5 0.75 1",
                           "reliability_grid = 0.5")
    assert run_cli("sweep", "--scenario", str(path), "--out", str(tmp_path)) == 0
    lines = (tmp_path / "newsroom_sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.5,") and lines[1].endswith(",")


def test_sweep_without_reliability_grid_fails(scenario_dir, tmp_path, capsys):
    path = edited_newsroom(scenario_dir, tmp_path, "reliability_grid = 0 0.25 0.5 0.75 1\n", "")
    out = tmp_path / "out"
    assert run_cli("sweep", "--scenario", str(path), "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error [scenario]: no reliability grid")
    assert not out.exists()


@pytest.mark.parametrize("flag", [("--seed", "1"), ("--grid", "0.5")], ids=["seed", "grid"])
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_removed_flags_are_usage_errors(subcommand, flag, scenario_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, "--scenario", str(scenario_dir / "newsroom.scn"),
                "--out", str(tmp_path), *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_unknown_strategy_reported_cleanly(tmp_path, capsys):
    path = tmp_path / "rogue.scn"
    path.write_text("name = rogue\n[game]\nstrategies = AlwaysTrue Rogue\n")
    assert run_cli("game", "--scenario", str(path), "--out", str(tmp_path)) == 1
    assert "error [input]" in capsys.readouterr().err
