"""Frozen value records: what ``@dataclass(frozen=True)`` gave this package, plus range rules.

Fields are the class's own annotations, in order, with a class attribute,
``field(default=...)`` or ``rule(..., default=...)`` as a default; a declared field may be
reused, since each record takes its own copy. A ``rule`` field is checked as the record is
built, in field order and before ``__post_init__``: its value, or each item of a tuple or
list, must pass each ``value <op> bound`` (and be finite if ``float`` or ``tuple[float, ...]``),
else ``ValueError("<field> must be [finite and ]<op> <bound>..., got <value!r>")``. That
message comes from ``require``, which the kernels also call on their function arguments, each
with its own error type, and which can also demand an ``int``.
Methods are closures, not generated source: a run imports no ``dataclasses`` or ``inspect``.
"""

from math import isfinite
from operator import attrgetter, ge, gt, le

MISSING = object()  # the default of a field that has none


class FrozenInstanceError(AttributeError):
    """A record field was assigned or deleted."""


class Field:
    """One field: its name and annotation (set by ``record``), default and metadata."""

    def __init__(self, default=MISSING, metadata=None):
        self.name = self.type = None
        self.default, self.metadata = default, {} if metadata is None else metadata


field = Field

_TESTS = {">=": ge, ">": gt, "<=": le, "in": lambda value, options: value in options}
_FINITE = (float, tuple[float, ...])  # field types whose values must be finite


def rule(*rules, default=MISSING):
    """A field whose value must pass each ``value <op> bound`` (rules alternate op, bound)."""
    return Field(default, {"rules": tuple(zip(rules[::2], rules[1::2]))})


def require(name, value, *rules, finite=False, integer=False, error=ValueError):
    """Raise ``error`` unless value passes each ``value <op> bound`` (rules alternate op,
    bound) and is finite if ``finite``; then, if ``integer``, unless it is a non-bool ``int``."""
    rules = tuple(zip(rules[::2], rules[1::2]))
    try:
        ok = all(_TESTS[op](value, b) for op, b in rules) and (not finite or isfinite(value))
    except (TypeError, OverflowError):  # a str or None, say, or an int too large for isfinite
        ok = False
    if not ok:
        need = " and ".join(["finite"] * finite + [f"{op} {bound}" for op, bound in rules])
        raise error(f"{name} must be {need}, got {value!r}")
    if integer and (not isinstance(value, int) or isinstance(value, bool)):
        raise error(f"{name} must be an integer, got {value!r}")


def fields(record_or_instance) -> tuple:
    """The fields of a record class or instance, in declaration order."""
    return record_or_instance.__record_fields__


def _frozen(self, name, value=None):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def _checker(f):
    """A closure that checks f's rules on a built record, or None if f declares none."""
    if "rules" not in f.metadata:
        return None
    get, rules, finite = attrgetter(f.name), f.metadata["rules"], f.type in _FINITE
    tests = [(_TESTS[op], bound) for op, bound in rules]
    flat = [x for op_bound in rules for x in op_bound]  # require's form of the rules
    each = getattr(f.type, "__origin__", None) in (tuple, list)

    def check(self):
        value = get(self)
        for item in value if each else (value,):
            try:
                ok = not finite or isfinite(item)
                for test, bound in tests:
                    ok = ok and test(item, bound)
            except (TypeError, OverflowError):  # a test that cannot be made: require says why
                ok = False
            if not ok:
                require(f.name, item, *flat, finite=finite)
    return check


def record(cls):
    """Make cls a frozen record: ``__init__`` takes the fields positionally or by name,
    checks their rules, then calls ``__post_init__``; repr, ``==`` (within one class)
    and hash follow the field tuple; fields refuse assignment and deletion."""
    declared = []
    for name, kind in cls.__annotations__.items():
        f = cls.__dict__.get(name, MISSING)
        f = Field(f.default, f.metadata) if isinstance(f, Field) else Field(f)  # cls's own copy
        f.name, f.type = name, kind
        if f.default is not MISSING:
            setattr(cls, name, f.default)
        elif name in cls.__dict__:
            delattr(cls, name)
        declared.append(f)
    names = tuple(f.name for f in declared)
    defaults = tuple((f.name, f.default) for f in declared)
    # What __init__ runs once the fields are set: each field's rules in order, then __post_init__.
    steps = tuple(filter(None, [*map(_checker, declared), getattr(cls, "__post_init__", None)]))
    # Not self.__dict__.update: on 3.11 that builds the instance dict and slows every read.
    setattr_ = object.__setattr__
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if args:
            if len(args) > len(names):
                raise TypeError(f"{cls.__qualname__}() takes at most {len(names)} arguments")
            for name, value in zip(names, args):
                setattr_(self, name, value)
        for name, default in defaults[len(args):]:
            value = kwargs.pop(name, default)
            if value is MISSING:
                raise TypeError(f"{cls.__qualname__}() missing argument {name!r}")
            setattr_(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got an extra argument {next(iter(kwargs))!r}")
        for step in steps:
            step(self)

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    cls.__init__, cls.__repr__, cls.__eq__, cls.__hash__ = __init__, __repr__, __eq__, __hash__
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__match_args__, cls.__record_fields__ = names, tuple(declared)
    return cls
