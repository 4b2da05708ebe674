"""Frozen value records: what ``@dataclass(frozen=True)`` gave this package.

Fields are the class's own annotations, in order, with a class attribute or
``field(default=...)`` as a default. The methods are closures over the field
names, not generated source, so a run imports neither ``dataclasses`` nor ``inspect``.
"""

from operator import attrgetter

MISSING = object()  # the default of a field that has none


class FrozenInstanceError(AttributeError):
    """A record field was assigned or deleted."""


class Field:
    """One field: its name and annotation (set by ``record``), default and metadata."""

    def __init__(self, default=MISSING, metadata=None):
        self.name = self.type = None
        self.default, self.metadata = default, {} if metadata is None else metadata


field = Field


def fields(record_or_instance) -> tuple:
    """The fields of a record class or instance, in declaration order."""
    return record_or_instance.__record_fields__


def _frozen(self, name, value=None):
    raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")


def record(cls):
    """Make cls a frozen record: ``__init__`` takes the fields positionally or by name,
    then calls ``__post_init__``; repr, ``==`` (within one class) and hash follow
    the field tuple; fields refuse assignment and deletion."""
    declared = []
    for name, kind in cls.__annotations__.items():
        f = cls.__dict__.get(name, MISSING)
        f = f if isinstance(f, Field) else Field(f)
        f.name, f.type = name, kind
        if f.default is not MISSING:
            setattr(cls, name, f.default)
        elif name in cls.__dict__:
            delattr(cls, name)
        declared.append(f)
    names = tuple(f.name for f in declared)
    defaults = tuple((f.name, f.default) for f in declared)
    post_init = getattr(cls, "__post_init__", None)
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
        if post_init is not None:
            post_init(self)

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
