"""Shared exception hierarchy.

Everything raised on bad data or bad queries derives from DataEffError so
callers (and the CLI) can distinguish data problems from genuine bugs.
"""


class DataEffError(Exception):
    """Base class for all toolkit errors."""


class InputError(DataEffError, ValueError):
    """Malformed input: bad JSON, a missing or ill-typed key, a bad value or CSV cell.

    With a path and a line, the message reads ``PATH:LINE: message``; ``line``
    keeps the 1-based line number.
    """

    def __init__(self, message: str, path=None, line: int | None = None):
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        super().__init__(message)
        self.line = line


class FrameParseError(DataEffError):
    """Malformed bracketed frame text. Carries the character offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class CorpusError(InputError):
    """Unreadable or malformed corpus file; ``line`` is the 1-based line number."""


class UnknownDomainError(DataEffError):
    """A requested domain is not present in the corpus."""


class SamplingError(DataEffError):
    """Invalid subset specification or an unsatisfiable draw."""


class FitError(DataEffError):
    """Curve fitting cannot proceed (too few points, bad inputs)."""


class CurveDomainError(DataEffError):
    """Curve evaluated or inverted outside its mathematical domain."""


class ProtocolError(DataEffError):
    """Inconsistent manifests, ledgers, or runner output."""


class RunnerError(DataEffError):
    """A single parser run failed; recorded in the ledger, does not abort the protocol."""


class AnnotationError(InputError):
    """Malformed complexity annotation file; ``line`` is the 1-based line number."""


class AnalysisError(DataEffError):
    """Aggregation over results cannot proceed (missing predictions, empty input)."""
