"""The error for input that fails a check, the integer check of the
input readers, and the error for writing to a frozen object."""


class InputError(ValueError):
    """Input that fails a check: a usage error, not a fault.

    ``fm`` reports an InputError, which includes the parse and
    evaluation errors, and exits 2.  Any other ValueError or KeyError is
    a fault in the program and is not caught."""


def read_int(x, holder: str, strings: bool = True) -> int:
    """*x*, an element, vertex, size or index read from input: an int or,
    with *strings*, a string ``int`` reads (codes and JSON keys are
    strings).  A float, a bool or anything else raises, not truncated."""
    if isinstance(x, int) and not isinstance(x, bool) or strings and isinstance(x, str):
        return int(x)
    raise InputError(f"{holder} holds {x!r}, which is not an integer")


def read_only(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the frozen plain classes."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
