"""Exception types shared across the package.

Each class marks a distinct failure mode so the command line layer can
map it to a stable exit code without string matching.
"""


class ParseError(ValueError):
    """A text input (series matrix, annotation, TSV, GMT) is malformed.

    ``line`` is the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AnnotationError(ValueError):
    """Probe annotation cannot be applied (e.g. no probe maps to a symbol)."""


class ManifestError(ValueError):
    """A persisted dataset directory has a missing or incompatible manifest."""


class AlreadyScoredError(ValueError):
    """A score transform was requested on a dataset that is already scored."""


class NoCommonFeaturesError(ValueError):
    """Row-name intersection across matrices is empty."""


class DegenerateDataError(ValueError):
    """A rank test cannot be formed (all values tied, a group is empty,
    too few values, or an exact tail asked of tied data)."""
