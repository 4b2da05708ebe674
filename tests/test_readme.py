"""README.md's reference tables agree with the code they describe.

The scenario-key table is rendered here from the section records, which declare
every key, default and rule; paste the expected block a failure prints into the
README after changing a record.
"""

from itertools import takewhile
from pathlib import Path

from infomarket import cli
from infomarket._record import MISSING
from infomarket.scenario import _SECTIONS, Scenario, _keys, _render, load_scenario

README = Path(__file__).resolve().parent.parent / "README.md"
BEGIN, END = "<!-- scenario-keys:begin -->", "<!-- scenario-keys:end -->"

TYPES = {float: "number", int: "integer", str: "text", str | None: "text",
         tuple[float, ...]: "numbers", tuple[str, ...]: "words"}


def _default(f) -> str:
    if f.default is MISSING:
        return "required"
    return "" if f.default in (None, ()) else f"`{_render(f.default)}`"


def _rule(f) -> str:
    rules = [f"one of `{'`, `'.join(bound)}`" if op == "in" else f"`{op} {_render(bound)}`"
             for op, bound in f.metadata.get("rules", ())]
    if f.metadata.get("file"):
        rules.append("file, must exist")
    return " and ".join(rules)


def declared_keys():
    """(section, field) for each scenario key: the preamble's, then each keyed section's in
    file order. ``[matching]`` declares no record, so it has none."""
    for section, cls in {"preamble": Scenario, **_SECTIONS}.items():
        yield from ((section, f) for f in (_keys(cls).values() if cls is not None else ()))


def scenario_key_table() -> str:
    """One row per scenario key."""
    rows = ["| section | key | type | default | rule |", "|---|---|---|---|---|"]
    for section, f in declared_keys():
        name = section if section == "preamble" else f"`[{section}]`"
        rows.append(f"| {name} | `{f.name}` | {TYPES[f.type]} | {_default(f)} | {_rule(f)} |")
    return "\n".join(rows)


def test_readme_scenario_keys_are_the_section_records():
    text = README.read_text(encoding="utf-8")
    block = text.split(BEGIN, 1)[1].split(END, 1)[0].strip()
    expected = scenario_key_table()
    assert block == expected, f"README.md's block should read:\n{BEGIN}\n{expected}\n{END}"


def test_readme_output_columns_are_the_runners_headers(scenario_dir):
    path = scenario_dir / "newsroom.scn"
    scenario = load_scenario(path)
    headers = {name: ", ".join(next(run(scenario, path))) for name, run in cli._RUNNERS.items()}
    text = README.read_text(encoding="utf-8").split("### Output columns", 1)[1]
    table = list(takewhile(lambda line: line.startswith("|"), text.lstrip().splitlines()))[2:]
    rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in table]
    assert dict(rows) == headers
