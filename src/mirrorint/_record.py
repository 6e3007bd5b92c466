"""Frozen record classes without the stdlib @dataclass.

@record turns a class whose fields are its annotated names into an
immutable record, as @dataclass(frozen=True) would:

- __init__ takes the fields in order, by position or keyword, fills a
  missing one from its class-level default, raises TypeError for a
  missing, unknown or repeated argument, and then calls __post_init__ if
  the instance has one at that moment;
- __eq__ holds for records of the same class with equal fields (any
  other class gets NotImplemented), and __hash__ hashes the field tuple;
- __repr__ reads Name(field=value, ...) in field order;
- assigning or deleting an attribute raises AttributeError.  A
  __post_init__ writes through object.__setattr__, and a cached_property
  through the instance __dict__, which every record keeps.

Why not @dataclass: every CLI run pays for importing its module before it
does any work.  That module loads inspect, with ast, dis and tokenize, and
each @dataclass(frozen=True) then execs the source of its methods.  On
CPython 3.11 (a shared 2-vCPU Xeon VM, -X importtime, three runs), that
was 18-25 ms of the 38-55 ms it took to import the package, which now
takes 18-27 ms.  The methods here are closures over the field names, with
no exec.  A record built from all its fields by position costs what a
dataclass does (about 1.3 us); by keyword it costs about 2 us more, a few
ms at most over the thousand records of a `zhou --n-max 5` batch.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["record"]

# Fields are set one by one, as __setattr__ would: writing vars(self) instead
# makes CPython 3.11 give up its inline attribute layout, and every later
# read of a field took about three times as long.
_set = object.__setattr__


def record(cls):
    """Make cls a frozen record over its annotated fields (see the module)."""
    name = cls.__qualname__
    names = tuple(cls.__annotations__)
    defaults = {n: vars(cls)[n] for n in names if n in vars(cls)}
    get = attrgetter(*names)
    values = get if len(names) > 1 else (lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        if len(args) != len(names) or kwargs:
            if len(args) > len(names):
                raise TypeError(
                    f"{name}() takes {len(names)} arguments, {len(args)} given"
                )
            given = dict(zip(names, args))
            bad = [key for key in kwargs if key not in names or key in given]
            if bad:
                raise TypeError(f"{name}() got unknown or repeated arguments {bad}")
            given.update(kwargs)
            missing = [n for n in names if n not in given and n not in defaults]
            if missing:
                raise TypeError(f"{name}() missing arguments {missing}")
            args = [given.get(n, defaults.get(n)) for n in names]
        for field, value in zip(names, args):
            _set(self, field, value)
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, values(self)))
        return f"{name}({fields})"

    def __setattr__(self, key, value):
        raise AttributeError(f"{name} is frozen: cannot assign {key!r}")

    def __delattr__(self, key):
        raise AttributeError(f"{name} is frozen: cannot delete {key!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{name}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
