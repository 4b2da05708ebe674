import gc
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

from infomarket.cli import SUBCOMMANDS, main
from infomarket.scenario import _KINDS
from test_readme import declared_keys

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
SHIPPED = sorted(Path(__file__).resolve().parent.parent.glob("scenarios/*.scn"))


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
def test_runner_reads_before_its_header_and_computes_after(subcommand, tmp_path, monkeypatch):
    # Each shipped run with its stages fenced: the runner reads its inputs before its header
    # and calls no kernel, then computes without opening a file. Its CSV is the golden one.
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
    assert [p.stem for p in SHIPPED] == ["newsroom", "tight_race"]
    for scenario in SHIPPED:
        assert run_cli(subcommand, "--scenario", str(scenario), "--out", str(tmp_path)) == 0
        name = f"{scenario.stem}_{subcommand}.csv"
        assert read(tmp_path / name) == read(GOLDEN_DIR / name), name


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


@pytest.mark.parametrize("name, subcommand", [
    ("tight_race.scn", "equilibrium"),
    ("tight_race_ballots.txt", "vote-meek"),
    ("tight_race_graph.txt", "path"),  # its first node is the route's source
])
def test_a_leading_byte_order_mark_is_skipped(name, subcommand, scenario_dir, tmp_path):
    shutil.copytree(scenario_dir, tmp_path / "in")
    path = tmp_path / "in" / name
    path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
    scenario = tmp_path / "in" / "tight_race.scn"
    assert run_cli(subcommand, "--scenario", str(scenario), "--out", str(tmp_path)) == 0
    csv_name = f"tight_race_{subcommand}.csv"
    assert read(tmp_path / csv_name) == read(GOLDEN_DIR / csv_name)


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


def edited(text, changes):
    """Scenario text with each ``changes[section][key]`` line set, first in its section, or
    dropped where the value is None; a section mapped to None is dropped whole."""
    def put(new):
        return [f"{key} = {value}" for key, value in new.items() if value is not None]
    new = changes.get("preamble", {})
    lines = put(new)
    for line in text.splitlines():
        if line.startswith("["):
            new = changes.get(line[1:-1], {})
            lines += [line, *put(new)] if new is not None else []
        elif new is not None and line.split(" = ")[0] not in new:
            lines.append(line)
    return "\n".join(lines) + "\n"


def scenario_copy(scenario_dir, tmp_path, changes, base="newsroom.scn", files=None):
    """Copies of the shipped scenarios and their files under tmp_path, with base edited by
    changes and each of files written, or deleted where its text is None; base's path."""
    shutil.copytree(scenario_dir, tmp_path / "in")
    path = tmp_path / "in" / base
    path.write_text(edited(path.read_text(), changes))
    for name, text in (files or {}).items():
        if text is None:
            (tmp_path / "in" / name).unlink()
        else:
            (tmp_path / "in" / name).write_text(text)
    return path


def row(id, subcommands, changes, expected, files=None, base="newsroom.scn"):
    """A row of the refusal table, checked by the refused fixture."""
    return pytest.param(subcommands, changes, expected, files, base, id=id)


@pytest.fixture
def refused(scenario_dir, tmp_path, capsys):
    """Checks a refusal: each of subcommands, run on base edited by changes and files, exits 1
    with expected as its whole stderr, or, for a tuple, one line that holds each of its parts,
    and writes no --out directory and no CSV."""
    def check(subcommands, changes, expected, files=None, base="newsroom.scn"):
        path = scenario_copy(scenario_dir, tmp_path, changes, base, files)
        out = tmp_path / "out"
        for subcommand in subcommands:
            assert run_cli(subcommand, "--scenario", str(path), "--out", str(out)) == 1, subcommand
            err = capsys.readouterr().err
            if isinstance(expected, str):
                assert err == expected, subcommand
            else:
                assert err.count("\n") == 1 and all(part in err for part in expected), err
        assert not out.exists() and not list(tmp_path.rglob("*.csv"))
    return check


def past(op, bound, kind):
    """Scenario text for a value of kind just past one declared bound."""
    if op == "in":
        return "x"
    if op == ">":
        return repr(kind(bound))  # the bound itself fails a strict test
    step = -1 if op == ">=" else 1
    return repr(bound + step if kind is int else math.nextafter(bound, step * math.inf))


def declared_rows():
    """A row for each bound of each declared key, for -1 in each int key (each one counts
    something, or is the seed) and for nan, inf and -inf in each float key. Each is refused
    while the scenario is parsed, so every subcommand refuses it, and in the same words."""
    for section, f in declared_keys():
        kind, _ = _KINDS[f.type]
        finite, rules = kind is float, f.metadata.get("rules", ())
        need = " and ".join(["finite"] * finite + [f"{op} {bound}" for op, bound in rules])
        bad = [past(op, bound, kind) for op, bound in rules]
        bad += ["-1"] * (kind is int) + ["nan", "inf", "-inf"] * finite
        base = next(p.name for p in SHIPPED
                    if section == "preamble" or f"[{section}]\n" in p.read_text())
        items = f.default if isinstance(f.default, tuple) else ()  # so a later item is checked
        for value in dict.fromkeys(bad):
            yield row(f"{section}.{f.name}={value}", SUBCOMMANDS,
                      {section: {f.name: " ".join([*map(repr, items), value])}},
                      f"error [scenario]: [{section}] {f.name} must be {need}, "
                      f"got {kind(value)!r}\n", base=base)


REFUSALS = [
    *declared_rows(),
    *(row(f"{section}.{key}=", [subcommand], {section: {key: ""}},
          f"error [scenario]: [{section}] {key} needs a value\n")
      for subcommand, section, key in [("game", "game", "strategies"),
                                       ("dynamics", "dynamics", "decay_grid"),
                                       ("vote-meek", "voting", "ballots"),
                                       ("match", "matching", "providers"),
                                       ("match", "matching", "consumers")]),
]


@pytest.mark.parametrize("subcommands, changes, expected, files, base", REFUSALS)
def test_refusal(subcommands, changes, expected, files, base, refused):
    refused(subcommands, changes, expected, files, base)


def test_missing_scenario_file_fails(refused):
    refused(["equilibrium"], {}, ("error [io]: [Errno 2] No such file", "newsroom.scn"),
            files={"newsroom.scn": None})


def test_missing_section_fails_with_context(refused):
    refused(["equilibrium"], {"market.fake": None, "market.true": None},
            "error [scenario]: scenario 'newsroom' has no [market.fake] / [market.true] section\n")


@pytest.mark.parametrize("name", ["../escaped", "a/b", ".", ".."])
def test_scenario_name_that_is_not_a_file_name_writes_no_file(name, refused):
    refused(["equilibrium"], {"preamble": {"name": name}},
            f"error [scenario]: [preamble] name must be a file name, got {name!r}\n")


@pytest.mark.parametrize("subcommand, changes, files, message", [
    ("vote-fptp", {}, {"newsroom_ballots.txt": "# no ballots yet\n\n"},
     "ballot file holds no rankings"),
    ("path", {"analysis": {"graph": None}}, {},
     "[analysis] needs graph, source and target for the path subcommand"),
], ids=["comment-only-ballots", "path-without-graph"])
def test_run_without_its_inputs_fails_cleanly(subcommand, changes, files, message, refused):
    refused([subcommand], changes, f"error [scenario]: {message}\n", files)


def test_sweep_without_reliability_grid_fails(refused):
    refused(["sweep"], {"analysis": {"reliability_grid": None}},
            "error [scenario]: no reliability grid: set [analysis] reliability_grid\n")


@pytest.mark.parametrize("grid", ["0.5 0.2", "0.5 0.5"])
def test_out_of_order_grid_is_named_before_a_point_with_no_market(grid, refused):
    # Both intercepts at -1, so no point of the grid has a market: its order is named first.
    first, second = grid.split()
    refused(["sweep", "equilibrium"],
            {"analysis": {"reliability_grid": grid},
             "market.fake": {"demand_intercept": -1}, "market.true": {"demand_intercept": -1}},
            "error [scenario]: [analysis] reliability_grid must be strictly increasing, "
            f"got {second} after {first}\n")


@pytest.mark.parametrize("subcommand, section, changes, result", [
    ("game", "payoffs", {"truth_payoff": 1e308}, "inf"),
    ("game", "payoffs", {"harm_penalty": 1e308}, "-inf"),
    ("dynamics", "dynamics", {"diminishing_scale": 1e308}, "inf"),
    ("dynamics", "dynamics", {"compounding_scale": 1e308}, "inf"),
    ("equilibrium", "market.fake",
     {"supply_slope": 1e-300, "demand_intercept": 1e308, "demand_slope": 1e-300}, "inf"),
], ids=["truth_payoff", "harm_penalty", "diminishing_scale", "compounding_scale", "market.fake"])
def test_non_finite_result_writes_no_csv(subcommand, section, changes, result, refused):
    refused([subcommand], {section: changes},
            f"error [input]: a result is {result}, not a finite number: "
            "an input value is out of range\n")


def test_overflowing_result_reported_in_one_line(refused):
    refused(["dynamics"], {"dynamics": {"compounding_exponent": 400}},
            "error [input]: a result is too large to compute: an input value is out of range\n")


def test_infeasible_market_surfaces_module_error(refused):
    refused(["equilibrium"], {"market.fake": {"demand_intercept": -3}},
            "error [market]: demand intercept -3.0 gives non-positive equilibrium price "
            "and quantity\n")


def test_unknown_strategy_reported_cleanly(refused):
    refused(["game"], {"game": {"strategies": "AlwaysTrue Rogue"}},
            "error [input]: unknown strategy 'Rogue' "
            "(available: AlwaysFake, AlwaysTrue, GrimTrigger, TitForTat)\n")


@pytest.mark.parametrize("cost", ["inf", "nan"])
def test_non_finite_graph_cost_rejected(cost, refused):
    refused(["path"], {"analysis": {"source": "a", "target": "c"}},
            f"error [scenario]: cost on edge ('a', 'b') must be finite and >= 0, got {cost}\n",
            files={"newsroom_graph.txt": f"a b {cost}\nb c 1\n"})


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
    path = scenario_copy(scenario_dir, tmp_path, {"analysis": {"reliability_grid": "0.25 0.75"}})
    assert run_cli("sweep", "--scenario", str(path), "--out", str(tmp_path)) == 0
    lines = (tmp_path / "newsroom_sweep.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["0.25", "0.75"]


def test_one_point_grid_sweep_has_no_marginal(scenario_dir, tmp_path):
    path = scenario_copy(scenario_dir, tmp_path, {"analysis": {"reliability_grid": "0.5"}})
    assert run_cli("sweep", "--scenario", str(path), "--out", str(tmp_path)) == 0
    lines = (tmp_path / "newsroom_sweep.csv").read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("0.5,") and lines[1].endswith(",")


@pytest.mark.parametrize("flag", [("--seed", "1"), ("--grid", "0.5")], ids=["seed", "grid"])
@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_removed_flags_are_usage_errors(subcommand, flag, scenario_dir, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(subcommand, "--scenario", str(scenario_dir / "newsroom.scn"),
                "--out", str(tmp_path), *flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
