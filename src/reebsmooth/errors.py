"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ParseError -> 2, GuardViolation and
ValidationError -> 3.  A file that cannot be read or written is a
ParseError that names its path, so it exits 2 as well.  A stability report
with violations exits 4 (it is not an error: the report is still written).
"""


class ReebsmoothError(Exception):
    """Base class for all package errors."""


class ParseError(ReebsmoothError):
    """Malformed input file (OFF mesh, weighted-point CSV, JSON, config), or
    a file that cannot be read or written."""

    def __init__(self, message, path=None, line=None):
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class ValidationError(ReebsmoothError):
    """A type invariant or operation precondition is violated."""


class GuardViolation(ReebsmoothError):
    """Input exceeds a declared size/dimension guard."""
