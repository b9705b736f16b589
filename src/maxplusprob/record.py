"""``Record``: the frozen base of the package's value types.

Fields are the public annotated names, inherited ones first.  A ``_name``
is a cache that ``==``, ``hash`` and the repr skip, annotated if filled in
``__post_init__`` and a ``functools.cached_property`` if built on first use.

``__init__`` binds the fields by position or keyword, then calls
``self.__post_init__()``; ``Measure`` binds its two fields in its own.
"""


class Record:
    _fields: tuple = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(n for n in own if n[0] != "_" and n not in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        if len(args) != len(fields := self._fields) or kwargs:
            given = dict(zip(fields, args), **kwargs)
            if len(args) + len(kwargs) != len(fields) or given.keys() != set(fields):
                raise TypeError(f"{type(self).__name__} takes each of {fields} once")
            args = [given[n] for n in fields]
        self.__dict__.update(zip(fields, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields, normalizing them through ``self.__dict__``."""

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} is read-only")
    __delattr__ = __setattr__

    _values = property(lambda self: tuple(map(self.__dict__.__getitem__, self._fields)))

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values == other._values if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={self.__dict__[n]!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"
