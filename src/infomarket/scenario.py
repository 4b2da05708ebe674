"""Scenario files: one strict, line-oriented config binding all subsystems.

Format::

    # comment
    name = demo
    seed = 42

    [market.fake]
    supply_slope = 1
    demand_intercept = 10
    demand_slope = 1

    [matching]
    providers = p1 p2
    consumers = c1 c2
    rank.p1 = c1 > c2
    ...

Sections are optional but at least one must be present. Every keyed section's
record is declared here and declares its keys: the field names are the allowed
keys, the field types pick the parser, the field defaults fill absent keys, and a
field's ``_record.rule`` is the key's range, checked as the record is built; every
float key has one, so every number must be finite. The kernels import these records
and take their defaults and rules from them. ``[matching]`` becomes a
``matching.PreferenceProfile``, which checks the rankings. Unknown sections and keys
fail, a present key needs a value, and numbers serialize with 12 significant digits:
parse(serialize(s)) == s.
"""

import math
import os

from ._record import MISSING, field, fields, record, rule
from .errors import MalformedProfile, ParseError


def format_number(x) -> str:
    """Canonical scalar rendering: 12 significant digits, no trailing noise.

    Raises:
        ValueError: x is inf or nan, which no output may carry.
    """
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"a result is {x}, not a finite number: an input value is out of range")
    return f"{x:.12g}"


def _file(default=MISSING):
    """A key naming a file, relative to the scenario file, that must exist."""
    return field(default=default, metadata={"file": True})


@record
class MarketParams:
    """Linear market coefficients.

    Attributes:
        supply_slope: quantity supplied per unit price (a > 0).
        demand_intercept: quantity demanded at price zero (b, any finite value).
        demand_slope: quantity demanded lost per unit price (c > 0).
    """

    supply_slope: float = rule(">", 0)
    demand_intercept: float = rule()
    demand_slope: float = rule(">", 0)

    def supply(self, price):
        return self.supply_slope * price

    def demand(self, price):
        return self.demand_intercept - self.demand_slope * price


@record
class MarketScenario:
    """Linear market coefficients for both news types."""

    fake: MarketParams
    true: MarketParams


@record
class HarmPayoffParams:
    """Repeated-game payoff knobs.

    ``fake_base`` is the payoff of deceptive provision before any harm has
    accrued, ``harm_penalty`` the payoff lost per unit of accumulated harm,
    and ``truth_payoff`` the flat payoff of truthful provision.
    """

    fake_base: float = rule(default=5.0)
    harm_penalty: float = rule(">", 0, default=2.0)
    truth_payoff: float = rule(default=3.0)


@record
class GameSection:
    strategies: tuple[str, ...]
    rounds: int = rule(">=", 1, default=10)
    harm_rule: str = rule("in", ("own", "any"), default="own")
    audience: float = rule(">", 0, default=100.0)
    seats: int = rule(">=", 1, default=2)
    true_acceptance: float = rule(">=", 0, default=2.0)
    fake_acceptance: float = rule(">=", 0, default=3.0)


@record
class VotingSection:
    ballots: str = _file()
    seats: int = rule(">=", 1)
    tolerance: float = rule(">=", 0, default=1e-9)


@record
class DynamicsSection:
    initial_retention: float = rule(">=", 0, "<=", 1, default=1.0)
    decay_grid: tuple[float, ...] = rule(">=", 0, default=(0.1, 0.3, 0.5, 1.0))
    diminishing_scale: float = rule(">=", 0, default=1.0)
    compounding_scale: float = diminishing_scale
    compounding_exponent: float = rule(">", 1, default=2.0)
    horizon: int = rule(">=", 1, default=20)


@record
class AnalysisSection:
    reliability_grid: tuple[float, ...] = rule(">=", 0, "<=", 1, default=())
    graph: str | None = _file(None)
    source: str | None = None
    target: str | None = None
    changed_fake: MarketParams | None = None
    changed_true: MarketParams | None = None

    def __post_init__(self):
        strictly_increasing("reliability_grid", self.reliability_grid)


def strictly_increasing(name: str, values) -> None:
    """Raise ValueError at the first item of values that is not above the one before."""
    for a, b in zip(values, values[1:]):
        if b <= a:
            raise ValueError(f"{name} must be strictly increasing, got {b!r} after {a!r}")


@record
class Scenario:
    name: str
    seed: int = rule(">=", 0, default=0)
    market: MarketScenario | None = None
    payoffs: HarmPayoffParams | None = None
    matching: "PreferenceProfile | None" = None
    game: GameSection | None = None
    voting: VotingSection | None = None
    dynamics: DynamicsSection | None = None
    analysis: AnalysisSection | None = None

    def __post_init__(self):  # the CSV is <out>/<name>_<subcommand>.csv, so no path
        if self.name in (".", "..") or os.path.basename(self.name) != self.name:
            raise ValueError(f"name must be a file name, got {self.name!r}")


_SECTIONS = {  # section name -> the record it builds, in canonical order
    "market.fake": MarketParams,
    "market.true": MarketParams,
    "payoffs": HarmPayoffParams,
    "matching": None,  # a matching.PreferenceProfile, built by _matching_section
    "game": GameSection,
    "voting": VotingSection,
    "dynamics": DynamicsSection,
    "analysis": AnalysisSection,
    "analysis.changed.market.fake": MarketParams,
    "analysis.changed.market.true": MarketParams,
}

# Field type -> (token parser, whether the value is a space-separated list).
# Fields of any other type, such as a nested section, are not keys. Records
# keep class annotations (no ``from __future__ import annotations``), so these
# keys match the annotations themselves.
_KINDS = {
    float: (float, False),
    int: (int, False),
    str: (str, False),
    str | None: (str, False),
    tuple[float, ...]: (float, True),
    tuple[str, ...]: (str, True),
}


def _keys(cls) -> dict:
    """The fields of cls that are scenario keys, by name, in declaration order."""
    return {f.name: f for f in fields(cls) if f.type in _KINDS}


def _split_sections(text: str) -> tuple[dict[str, str], dict[str, dict[str, str]]]:
    preamble: dict[str, str] = {}
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    where = "preamble"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise ParseError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = sections[name]
            where = f"[{name}]"
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value' in {where}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ParseError(f"line {lineno}: empty key in {where}")
        target = preamble if current is None else current
        if key in target:
            raise ParseError(f"line {lineno}: duplicate key {key!r} in {where}")
        target[key] = value
    return preamble, sections


def _value(section: str, f, text: str):
    """Parse one key's text by its field's type; the section's record checks its range."""
    if not text:
        raise ParseError(f"[{section}] {f.name} needs a value")
    convert, is_list = _KINDS[f.type]
    values = []
    for token in text.split() if is_list else (text,):
        try:
            values.append(convert(token))
        except ValueError:
            expected = "an integer" if convert is int else "a number"
            raise ParseError(f"[{section}] {f.name}: expected {expected}, got {token!r}") from None
    return tuple(values) if is_list else values[0]


def _section(cls, section: str, data: dict, **extra):
    """Build cls from one section's key/value text; cls's fields declare the keys."""
    keys = _keys(cls)
    unknown = set(data) - set(keys)
    if unknown:
        raise ParseError(f"[{section}] unknown keys: {sorted(unknown)}")
    missing = [k for k, f in keys.items() if f.default is MISSING and k not in data]
    if missing:
        raise ParseError(f"[{section}] missing keys: {missing}")
    values = {k: _value(section, keys[k], text) for k, text in data.items()}
    try:
        return cls(**values, **extra)
    except ValueError as exc:
        raise ParseError(f"[{section}] {exc}") from None


def _matching_section(data: dict) -> "PreferenceProfile":
    from .matching import PreferenceProfile
    missing = [k for k in ("providers", "consumers") if k not in data]
    if missing:
        raise ParseError(f"[matching] missing keys: {missing}")
    providers = tuple(data["providers"].split())
    consumers = tuple(data["consumers"].split())
    # Each ranking entry becomes the declared id's own str object, so the
    # profile holds one str per id and set checks and lookups hit on identity.
    declared = {a: a for a in providers + consumers}
    unknown = set(data) - {"providers", "consumers", *(f"rank.{a}" for a in declared)}
    if unknown:
        raise ParseError(f"[matching] unknown keys: {sorted(unknown)}")
    get, ranks = declared.get, {}
    for agent in declared:
        text = data.get(f"rank.{agent}")
        if text is not None:
            ranks[agent] = tuple([get(tok, tok) for tok in map(str.strip, text.split(">"))])
            if "" in ranks[agent]:
                raise ParseError(f"[matching] rank.{agent}: empty id in ranking")
    try:
        return PreferenceProfile(
            providers=providers,
            consumers=consumers,
            provider_prefs={p: ranks[p] for p in providers if p in ranks},
            consumer_prefs={c: ranks[c] for c in consumers if c in ranks},
        )
    except MalformedProfile as exc:
        raise ParseError(f"[matching] {exc}") from None


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text. File-existence checks happen in load_scenario."""
    preamble, sections = _split_sections(text)
    if not sections:
        raise ParseError("scenario has no sections; at least one is required")

    def part(name):  # the section's record, or None if the text has no such section
        return _section(_SECTIONS[name], name, sections[name]) if name in sections else None

    fake, true = (part(f"market.{side}") for side in ("fake", "true"))
    if (fake is None) != (true is None):
        raise ParseError("sections [market.fake] and [market.true] come as a pair")
    analysis = None
    if any(name.startswith("analysis") for name in sections):
        analysis = _section(
            AnalysisSection, "analysis", sections.get("analysis", {}),
            changed_fake=part("analysis.changed.market.fake"),
            changed_true=part("analysis.changed.market.true"),
        )
    return _section(
        Scenario, "preamble", preamble,
        market=fake and MarketScenario(fake, true),
        payoffs=part("payoffs"),
        matching=_matching_section(sections["matching"]) if "matching" in sections else None,
        game=part("game"),
        voting=part("voting"),
        dynamics=part("dynamics"),
        analysis=analysis,
    )


def load_scenario(path) -> Scenario:
    """Read and parse a scenario file, checking that referenced files exist."""
    with open(path, encoding="utf-8") as f:
        scenario = parse_scenario(f.read())
    for section in (scenario.voting, scenario.analysis):
        for f in fields(section) if section is not None else ():
            ref = getattr(section, f.name)
            if f.metadata.get("file") and ref is not None:
                resolved = resolve_path(path, ref)
                if not os.path.exists(resolved):
                    raise ParseError(f"referenced file not found: {ref!r} (looked for {resolved})")
    return scenario


def resolve_path(scenario_path, ref: str) -> str:
    """Resolve a scenario-relative file reference."""
    return os.path.join(os.path.dirname(os.path.abspath(scenario_path)), ref)


def _render(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_render(v) for v in value)
    return value if isinstance(value, str) else format_number(value)


def _key_lines(section) -> list[str]:
    """One ``key = value`` line per set key; None and () mean "not set"."""
    values = ((k, getattr(section, k)) for k in _keys(type(section)))
    return [f"{k} = {_render(v)}" for k, v in values if v is not None and v != ()]


def _matching_lines(m: "PreferenceProfile") -> list[str]:
    lines = [f"providers = {' '.join(m.providers)}", f"consumers = {' '.join(m.consumers)}"]
    lines += [f"rank.{p} = {' > '.join(m.provider_prefs[p])}" for p in m.providers]
    lines += [f"rank.{c} = {' > '.join(m.consumer_prefs[c])}" for c in m.consumers]
    return lines


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario in canonical section and key order."""
    s, m, a = scenario, scenario.market, scenario.analysis
    values = (m and m.fake, m and m.true, s.payoffs, s.matching, s.game, s.voting,
              s.dynamics, a, a and a.changed_fake, a and a.changed_true)
    lines = _key_lines(s) + [""]
    for name, section in zip(_SECTIONS, values):
        if section is not None:
            body = _matching_lines(section) if name == "matching" else _key_lines(section)
            lines += [f"[{name}]", *body, ""]
    return "\n".join(lines).rstrip("\n") + "\n"
