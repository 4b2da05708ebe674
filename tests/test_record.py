"""``infomarket._record`` against its oracle, the stdlib ``dataclasses``.

Twin classes, one ``@dataclass(frozen=True)`` and one ``@record``, declare the
same fields (a required one, a class-attribute default and a ``field``
default) and the same normalising ``__post_init__``; every behaviour the
package relies on must agree between them.
"""

import dataclasses
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from infomarket import _record
from infomarket.errors import InvalidSeats

# dataclasses on 3.13.0 alone compared fields one by one, so a nan field was
# unequal even to the same nan object there. Every other version compares the
# field tuples, which match on identity first, and so does record.
FIELDWISE_EQ = sys.version_info[:3] == (3, 13, 0)


def make_twin(decorate, field):
    class Twin:
        a: object
        b: object = 1.5
        c: object = field(default=None)

        def __post_init__(self):
            if isinstance(self.c, list):
                object.__setattr__(self, "c", tuple(self.c))

    return decorate(Twin)


Oracle = make_twin(dataclasses.dataclass(frozen=True), dataclasses.field)
OracleOther = make_twin(dataclasses.dataclass(frozen=True), dataclasses.field)
Record = make_twin(_record.record, _record.field)
RecordOther = make_twin(_record.record, _record.field)

scalars = st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.fractions(max_denominator=50),
    st.none(),
)
values = st.one_of(scalars, st.tuples(scalars, scalars))
arg_tuples = st.tuples(values, values, st.one_of(values, st.lists(scalars, max_size=3)))
calls = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: arg_tuples.map(lambda args: args[:n]))


def outcome(fn, *args):
    """fn's result, or the type of exception it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # the oracle's failure is a result to match
        return type(exc)


def build(cls, args, by_name):
    return cls(**dict(zip("abc", args))) if by_name else cls(*args)


@given(calls, calls, st.booleans(), st.booleans(), st.data())
def test_record_matches_dataclass(args, other, by_name, other_by_name, data):
    other = data.draw(st.sampled_from([args, other]))
    r1, r2 = build(Record, args, by_name), build(Record, other, other_by_name)
    d1, d2 = build(Oracle, args, by_name), build(Oracle, other, other_by_name)
    assert repr(r1) == repr(d1) and repr(r2) == repr(d2)
    assert (r1.a, r1.b, r1.c) == (d1.a, d1.b, d1.c)
    if not FIELDWISE_EQ:
        assert (r1 == r2) == (d1 == d2)
        assert (r1 != r2) == (d1 != d2)
    assert (r1 == r2) == ((r1.a, r1.b, r1.c) == (r2.a, r2.b, r2.c))
    assert outcome(hash, r1) == outcome(hash, d1)
    assert (r1 == build(Record, args, not by_name)) == (d1 == build(Oracle, args, not by_name))
    assert repr(build(Record, args, not by_name)) == repr(r1)
    assert r1 != RecordOther(*args) and not r1 == RecordOther(*args)
    assert d1 != OracleOther(*args) and not d1 == OracleOther(*args)


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    ((), {"b": 1}),
    ((1, 2, 3, 4), {}),
    ((1,), {"d": 2}),
    ((1,), {"a": 2}),
    ((1, 2), {"b": 3}),
])
def test_bad_arguments_raise_type_error_in_both(args, kwargs):
    with pytest.raises(TypeError):
        Oracle(*args, **kwargs)
    with pytest.raises(TypeError):
        Record(*args, **kwargs)


@pytest.mark.parametrize("name", ["a", "c", "z"])
def test_assignment_and_deletion_raise_attribute_error_in_both(name):
    for instance in (Oracle(Fraction(1, 3)), Record(Fraction(1, 3))):
        with pytest.raises(AttributeError):
            setattr(instance, name, 0)
        with pytest.raises(AttributeError):
            delattr(instance, name)
    with pytest.raises(_record.FrozenInstanceError):
        setattr(Record(1), name, 0)


def declared(fields, missing):
    """(name, type, default) per field, with None for "no default"."""
    return [(f.name, f.type, None if f.default is missing else f.default) for f in fields]


def test_fields_defaults_and_match_args_agree():
    assert Record.__match_args__ == Oracle.__match_args__ == ("a", "b", "c")
    assert (declared(_record.fields(Record), _record.MISSING)
            == declared(dataclasses.fields(Oracle), dataclasses.MISSING)
            == [("a", object, None), ("b", object, 1.5), ("c", object, None)])
    assert _record.fields(Record(1)) == _record.fields(Record)
    assert _record.fields(Record)[0].default is _record.MISSING
    assert (Record.b, Record.c) == (Oracle.b, Oracle.c) == (1.5, None)
    assert not hasattr(Record, "a") and not hasattr(Oracle, "a")
    match Record(1, 2):
        case Record(a, b, c):
            assert (a, b, c) == (1, 2, None)


# Range rules. The predicate below is written apart from ``_record``: it
# spells out the comparisons, finiteness and the message form on its own.
COMPARE = {">=": lambda v, b: v >= b, ">": lambda v, b: v > b, "<=": lambda v, b: v <= b,
           "in": lambda v, b: v in b}
SCALAR, MANY = (float, int), tuple[float, ...]

numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=7),
)
bounds = st.one_of(st.integers(-2, 2), st.sampled_from([0.0, -0.0, 0.5, 1.0]),
                   st.fractions(max_denominator=3).filter(lambda b: abs(b) < 3))
one_rule = st.tuples(st.sampled_from([">=", ">", "<="]), bounds) | st.tuples(
    st.just("in"), st.tuples(bounds, bounds))
specs = st.lists(st.tuples(st.sampled_from([float, int, MANY]), st.lists(one_rule, max_size=3)),
                 min_size=1, max_size=3)


def value_of(kind):
    return numbers if kind in SCALAR else st.lists(numbers, max_size=4).flatmap(
        lambda items: st.sampled_from([tuple(items), items]))


def expected_error(spec, values):
    """The text the first failing field item must raise, or None when all pass."""
    for (name, kind, rules), value in zip(spec, values):
        for item in (value,) if kind in SCALAR else value:
            finite = kind is not int
            if ((finite and (item != item or abs(item) == math.inf))
                    or not all(COMPARE[op](item, bound) for op, bound in rules)):
                words = ["finite"] * finite + [f"{op} {bound}" for op, bound in rules]
                return f"{name} must be {' and '.join(words)}, got {item!r}"
    return None


def ranged(spec, post_init_fails):
    """A record with spec's (name, kind, rules) fields, each declared with ``rule``."""
    body = {"__annotations__": {name: kind for name, kind, _ in spec}}
    body.update((name, _record.rule(*[x for r in rules for x in r])) for name, _, rules in spec)
    if post_init_fails:
        def __post_init__(self):
            raise ValueError("__post_init__ ran")
        body["__post_init__"] = __post_init__
    return _record.record(type("Ranged", (), body))


def build_outcome(cls, args, by_name):
    try:
        return repr(build(cls, args, by_name))
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=300, deadline=None)
@given(specs.map(lambda s: [(name, kind, rules) for name, (kind, rules) in zip("abc", s)]),
       st.booleans(), st.data())
def test_rules_raise_exactly_when_the_predicate_fails(spec, post_init_fails, data):
    cls = ranged(spec, post_init_fails)
    values = tuple(data.draw(value_of(kind)) for _, kind, _ in spec)
    by_position, by_name = build_outcome(cls, values, False), build_outcome(cls, values, True)
    assert by_position == by_name
    error = expected_error(spec, values)
    if error is None and post_init_fails:
        error = "__post_init__ ran"
    if error is None:
        assert tuple(getattr(cls(*values), name) for name, _, _ in spec) == values
    else:
        assert by_position == f"ValueError: {error}"


def expected_refusal(value, rules, finite, integer):
    """The text ``require`` must raise for value, or None when it passes."""
    if (finite and (value != value or abs(value) == math.inf)) or not all(
            COMPARE[op](value, bound) for op, bound in rules):
        words = ["finite"] * finite + [f"{op} {bound}" for op, bound in rules]
        return f"x must be {' and '.join(words)}, got {value!r}"
    if integer and type(value) is not int:
        return f"x must be an integer, got {value!r}"
    return None


@settings(max_examples=500, deadline=None)
@given(st.sampled_from([0, 1, -1, 0.5, -0.0, math.nan, math.inf, -math.inf, True, False]) | numbers,
       st.lists(st.tuples(st.sampled_from([">=", ">", "<="]), bounds), min_size=1, max_size=2),
       st.booleans(), st.booleans(), st.sampled_from([ValueError, InvalidSeats]))
def test_require_raises_exactly_when_the_predicate_fails(value, rules, finite, integer, error):
    expected = expected_refusal(value, rules, finite, integer)
    try:
        _record.require("x", value, *[x for r in rules for x in r], finite=finite,
                        integer=integer, error=error)
    except Exception as exc:  # the type is checked below, with the text
        assert (type(exc), str(exc)) == (error, expected)
    else:
        assert expected is None


@pytest.mark.parametrize("value", ["3", None])
def test_require_refuses_a_value_no_bound_compares_with(value):
    from infomarket.dynamics import diminishing_curve, utility
    with pytest.raises(ValueError, match=rf"^k must be >= 0, got {value!r}$"):
        utility(diminishing_curve(), value)


def test_rules_are_checked_before_post_init():
    from infomarket.dynamics import CurveFamily, UtilityCurve
    from infomarket.voting import Ballot
    with pytest.raises(ValueError, match=r"^weight must be finite and >= 0, got -1.0$"):
        Ballot(("A", "A"), -1.0)
    with pytest.raises(ValueError, match=r"^scale must be finite and >= 0, got nan$"):
        UtilityCurve(CurveFamily.COMPOUNDING, math.nan, 0.5)
