"""Plain-class records: field-wise ``==`` and ``repr`` without
:mod:`dataclasses`.

The result classes of every module a warm ``repro analyze``/``check``/
``slice`` loads are plain classes on this base.  Importing
``dataclasses`` also loads ``inspect``, ``ast``, ``dis`` and
``tokenize``, which takes longer than a warm run's solve;
``tests/test_import_budget.py`` keeps both modules off the warm path.

A subclass writes its own ``__init__``, so its signature and defaults
read as before, and assigns each parameter to the attribute of the same
name: the parameters are the record's fields.  Equality, hashing and
``repr`` then behave as ``@dataclass`` generated them: equal when of
the same class with equal fields, unhashable because mutable,
``Name(field=value, ...)``.  Instances pickle by their ``__dict__``, as
dataclass instances do.
"""

from __future__ import annotations

from typing import Tuple


class Record:
    """Base of a plain result class; see the module docstring."""

    #: The ``__init__`` parameters, in order (set per subclass).
    _fields: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._fields)
        return f"{type(self).__qualname__}({shown})"
