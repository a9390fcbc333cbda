"""The error for input that fails a check, and the one for writing to a
frozen object."""


class InputError(ValueError):
    """Input that fails a check: a usage error, not a fault.

    ``fm`` reports an InputError, which includes the parse and
    evaluation errors, and exits 2.  Any other ValueError or KeyError is
    a fault in the program and is not caught."""


def read_only(self, name: str, *value) -> None:
    """``__setattr__`` and ``__delattr__`` of the frozen plain classes."""
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")
