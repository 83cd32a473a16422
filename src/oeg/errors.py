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
