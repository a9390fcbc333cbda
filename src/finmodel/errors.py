"""The error for input that fails a check."""


class InputError(ValueError):
    """Input that fails a check: a usage error, not a fault.

    ``fm`` reports an InputError, which includes the parse and
    evaluation errors, and exits 2.  Any other ValueError or KeyError is
    a fault in the program and is not caught."""
