"""Exception hierarchy for the repro package.

Every error deliberately raised by the library derives from
:class:`ReproError`, so callers can catch one type.  Sub-hierarchies
distinguish the three stages a program passes through: preprocessing /
parsing, lowering to the VDG, and analysis proper.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FrontendError(ReproError):
    """Base class for errors in the C frontend (preprocess/parse/lower)."""

    def __init__(self, message: str, filename: str | None = None,
                 line: int | None = None) -> None:
        self.filename = filename
        self.line = line
        prefix = ""
        if filename is not None:
            prefix = filename
            if line is not None:
                prefix += f":{line}"
            prefix += ": "
        super().__init__(prefix + message)


class PreprocessorError(FrontendError):
    """Malformed preprocessor directive or unresolvable include."""


class ParseError(FrontendError):
    """The C parser rejected the (preprocessed) source."""


class TypeError_(FrontendError):
    """Type elaboration failed (undeclared identifier, bad member, ...)."""


class UnsupportedFeatureError(FrontendError):
    """The program uses a C feature outside the modeled subset.

    The paper (Section 2) excludes signal handlers, longjmp, and casts
    between pointer and non-pointer types; we additionally reject
    ``goto``.  Anything we cannot lower soundly raises this rather than
    producing a silently unsound graph.
    """


class LoweringError(FrontendError):
    """Internal inconsistency while building the VDG from the AST."""


class IRError(ReproError):
    """Structural violation in the VDG (caught by the validator)."""


class AnalysisError(ReproError):
    """The points-to analysis was driven with inconsistent inputs."""


class SuiteError(ReproError):
    """A named benchmark program could not be located or loaded."""


class RequestError(ReproError):
    """A request that cannot run as given: an unknown flavor, schedule,
    checker id or slice direction, or a malformed daemon request body.
    The daemon answers it with HTTP 400."""
