"""The one base of the library's frozen value classes.

A subclass names its fields by annotation, with optional defaults, as a
frozen dataclass does, and behaves as one: it is immutable, equal only to a
record of its own class with equal fields, hashed as the tuple of its
fields, and shown as `Name(field=value, ...)`; `_replace` builds a copy with
some fields changed.  The one piece of code made per class is its __init__,
with the real signature, which stores each field by object.__setattr__ so
CPython keeps the fast inline attribute values.  Everything else is shared,
which keeps importing the package cheap.
"""

from operator import attrgetter


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = fields = cls._fields + tuple(cls.__dict__.get("__annotations__", {}))
        cls.__match_args__ = fields
        get = attrgetter(*fields)
        # a one-field record is still hashed as a one-tuple, never as its bare value
        cls._values = staticmethod(get if len(fields) > 1 else lambda self: (get(self),))
        defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
        params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}" for f in fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        namespace = {"__name__": cls.__module__, "_set": object.__setattr__, "_defaults": defaults}
        exec(f"def __init__(self{params}):{body}", namespace)
        namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = namespace["__init__"]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        pairs = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{f}={v!r}' for f, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _replace(self, **changes):
        """A copy with the given fields changed."""
        return type(self)(**dict(zip(self._fields, self._values(self)), **changes))
