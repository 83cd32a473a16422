"""Exception types shared across the library."""


class OegError(Exception):
    """Base class for all library errors."""


class InputError(OegError):
    """Malformed or inconsistent input data."""


class DomainError(OegError):
    """An operation was applied outside its domain, e.g. shifting past the
    end of a finite boundary path."""


class CompositionError(OegError):
    """Two elements were composed whose endpoints do not match."""


class UnsupportedScaleError(OegError):
    """The operation needs a finite boundary space but the graph has an
    infinite one, or a finite one too large to list."""


class ParseError(OegError):
    """Syntax error in a textual input, with a source position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + where)


def _shown_int(n) -> str:
    """A caller's integer as a message shows it: its digits up to the 64-bit
    bound, and past it a power of two it passes, with its sign; ``str``
    refuses integers of more than 4300 digits.  Anything else is ``str``."""
    if not isinstance(n, int) or n.bit_length() <= 64:
        return str(n)
    b = (abs(n) - 1).bit_length() - 1  # |n| > 2^b
    return f"more than 2^{b}" if n > 0 else f"less than -2^{b}"
