"""Frozen record classes, built without ``dataclasses``.

``@record`` gives a class the ``__init__``, ``__repr__``, ``__eq__``,
``__hash__`` and read-only attributes that ``@dataclass(frozen=True)`` would.
The fields are the names in the class's own ``__annotations__`` (strings
under ``from __future__ import annotations``, never evaluated), and a class
attribute of the same name is that field's default.  The methods are closures
over the field names, so decorating a class compiles nothing: importing
``dataclasses`` (and, through it, ``inspect``) and generating six methods per
class cost every command's start-up more than most commands compute.
"""

from operator import itemgetter


class FrozenRecordError(AttributeError):
    """Assignment to or deletion of an attribute of a record."""


def _bind(qualname: str, fields: tuple, defaults: dict, args: tuple, kwargs: dict) -> list:
    """The field values of a call with keywords, defaults or a wrong count."""
    if len(args) > len(fields):
        raise TypeError(f"{qualname}() takes {len(fields)} positional arguments "
                        f"but {len(args)} were given")
    given = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields:
            raise TypeError(f"{qualname}() got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        given[name] = value
    missing = [name for name in fields if name not in given and name not in defaults]
    if missing:
        raise TypeError(f"{qualname}() missing required argument(s) "
                        f"{', '.join(map(repr, missing))}")
    return [given[name] if name in given else defaults[name] for name in fields]


def record(cls):
    qualname = cls.__qualname__
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    post_init = "__post_init__" in cls.__dict__
    # the field tuple, read off the instance dict (a 1-tuple for one field)
    values = itemgetter(*fields) if len(fields) > 1 else lambda d: (d[fields[0]],)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(fields):
            args = _bind(qualname, fields, defaults, args, kwargs)
        d = self.__dict__
        for name, value in zip(fields, args):
            d[name] = value
        if post_init:
            self.__post_init__()

    def __repr__(self):
        inner = ", ".join([f"{name}={value!r}"
                           for name, value in zip(fields, values(self.__dict__))])
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self.__dict__) == values(other.__dict__)
        return NotImplemented

    def __hash__(self):
        return hash(values(self.__dict__))

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        method.__qualname__ = f"{qualname}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
