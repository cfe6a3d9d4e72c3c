"""Exception types shared across the package, each with its exit code.

Each class marks a distinct failure mode and declares, in its class
attribute ``exit_code``, the status the command line returns for it, so
no other module maps failures to codes and a new refusal needs only a
``raise``.  An exception without the attribute (a plain ``ValueError``,
``KeyError`` or ``OSError``) exits 1.
"""


class ParseError(ValueError):
    """A text input (series matrix, annotation, TSV, GMT) is malformed.

    ``line`` is the 1-based line number of the offending line when known.
    """

    exit_code = 2

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AnnotationError(ValueError):
    """Probe annotation cannot be applied (e.g. no probe maps to a symbol)."""

    exit_code = 3


class ManifestError(ValueError):
    """A persisted dataset directory has a missing or incompatible manifest."""

    exit_code = 2


class AlreadyScoredError(ValueError):
    """A score transform was requested on a dataset that is already scored."""

    exit_code = 4


class NoCommonFeaturesError(ValueError):
    """Row-name intersection across matrices is empty."""

    exit_code = 5


class DegenerateDataError(ValueError):
    """A rank test cannot be formed (all values tied, a group is empty,
    too few values, or an exact tail asked of tied data)."""

    exit_code = 6


class UnknownFeatureError(KeyError):
    """A feature name is none of a matrix's row names.

    The message names the feature and up to five close matches among
    ``candidates``; they are looked for only when the message is read,
    so a caller that catches the ``KeyError`` does not pay for the search.
    ``candidates`` has a default because unpickling passes ``name`` alone
    (the attributes follow).
    """

    exit_code = 7

    def __init__(self, name: str, candidates: tuple[str, ...] = ()):
        super().__init__(name)
        self.name, self.candidates = name, candidates

    def __str__(self) -> str:
        import difflib  # here, not at the top: only a read message needs it
        near = difflib.get_close_matches(self.name, list(self.candidates), n=5)
        msg = f"unknown feature {self.name!r}"
        return msg + "; closest matches: " + ", ".join(near) if near else msg


class EmptyUniverseError(ValueError):
    """A gene-set enrichment was asked over an empty universe."""

    exit_code = 8
