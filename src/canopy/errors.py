"""Exception hierarchy and the immutable record base of the package's value
types."""

import math

__all__ = [
    "CanopyError",
    "DomainError",
    "RangeError",
    "IntegrationError",
    "ValidationError",
    "ParseError",
    "UnderdeterminedError",
    "UnknownSpeciesError",
]


class CanopyError(Exception):
    """Base class for all canopy errors.  The CSV reader sets ``row`` to the
    1-based data row that raised one (``None`` otherwise)."""

    row: int | None = None


class DomainError(CanopyError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class RangeError(CanopyError, ValueError):
    """A target value is not attained by the curve being inverted."""


class IntegrationError(CanopyError, ArithmeticError):
    """Quadrature failed to reach the requested tolerance."""


class ValidationError(CanopyError, ValueError):
    """A value violates a domain type's invariants."""


class ParseError(CanopyError, ValueError):
    """An input file could not be parsed."""


class UnderdeterminedError(CanopyError, ValueError):
    """A regression segment does not contain enough points to fit a line."""


class UnknownSpeciesError(CanopyError, ValueError):
    """A wood type or size class name is not one of the known values."""


def _refusals(name: str, interval: str) -> str:
    """Source of the one check on a variable ``name`` that refuses a value
    outside ``interval``, written as in mathematics (``"(0, 1]"``: above 0,
    at most 1; ``"... or None"`` lets None pass).  The test joins the finite
    check and each finite end with ``and``, so nan and ±inf fail too, and a
    refusal reads ``<name> must lie in <interval>, got <value>``."""
    guard = f"{name} is not None and " if interval.endswith(" or None") else ""
    interval = interval.removesuffix(" or None")
    lo, hi = interval[1:-1].split(", ")
    checks = [f"_isfinite({name})"]
    if lo != "-inf":
        checks.append(f"{lo} {'<=' if interval[0] == '[' else '<'} {name}")
    if hi != "inf":
        checks.append(f"{name} {'<=' if interval[-1] == ']' else '<'} {hi}")
    return (f" if {guard}not ({' and '.join(checks)}):"
            f" raise _ValidationError(f'{name} must lie in {interval}, got {{{name}}}')\n")


class Record:
    """Immutable value record, the base of every canopy value type.

    A subclass's annotated names are its fields (``_fields``, in order),
    and a class attribute gives a field its default.  Each subclass gets a
    generated ``__init__``, which ends by calling ``__post_init__`` where
    defined, and ``==`` and ``hash`` over its fields or over the names
    passed as the ``compare`` class keyword.  Values that ``__post_init__``
    derives with ``object.__setattr__`` stay out of all three and ``repr``.

    A subclass's ``_domains`` table gives a field's interval, and nothing
    else, by its name (see :func:`_refusals`).  ``__init__`` checks the
    tabled fields, in table order, before it stores any, and raises
    :class:`ValidationError` ``<field> must lie in <interval>, got <value>``
    for the first value refused.  So ``__post_init__`` runs on values
    that pass, and keeps the rules that span fields or check what it derives.
    """

    def __init_subclass__(cls, compare: tuple[str, ...] | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = cls.__dict__.get("__annotations__", {})
        cls._fields = names = tuple(annotations)
        params = ", ".join(f"{n}=_cls.{n}" if n in cls.__dict__ else n for n in names)
        mine = ", ".join(f"self.{n}" for n in compare or names)
        theirs = mine.replace("self.", "other.")
        post = "self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        domains = cls.__dict__.get("_domains", {})
        # compiled once per class, so a call costs what hand-written code would;
        # the fields go straight into the instance dict, past __setattr__
        namespace = {"_cls": cls, "_isfinite": math.isfinite,
                     "_ValidationError": ValidationError, "__name__": cls.__module__}
        exec(
            f"def __init__(self, {params}):\n"
            + "".join(_refusals(n, interval) for n, interval in domains.items())
            + " fields = self.__dict__\n"
            + "".join(f" fields[{n!r}] = {n}\n" for n in names)
            + f" {post}\ndef __eq__(self, other):\n"
            " if other.__class__ is not self.__class__: return NotImplemented\n"
            f" return ({mine},) == ({theirs},)\n"
            f"def __hash__(self): return hash(({mine},))\n",
            namespace,
        )
        for name in ("__init__", "__eq__", "__hash__"):
            namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, namespace[name])
        cls.__init__.__annotations__ = {**annotations, "return": None}

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
