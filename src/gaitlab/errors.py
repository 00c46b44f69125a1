"""Exception hierarchy shared across the pipeline.

Every gaitlab error is one of three bases, and each base carries the exit
code the CLI gives it:

  ParseError.exit_code = 2             -- malformed or unusable input
  InsufficientDataError.exit_code = 3  -- too little data
  SchemaMismatch.exit_code = 4         -- feature schema disagreement

A subclass exists only for the attributes its callers read: TooFewValidFrames
(exit 3) carries ``valid`` and ``required``, and classify.UnscorableRow (exit 2)
its ``row``. Any error may also carry the place of the input it refused, set
by the raiser or by a caller that knows it: ``path``, ``line`` (1-based) and
``source_id``. ``str()`` writes the known parts before the message:
``<path> line <line> ('<source_id>'): <message>``.
"""

import copyreg


class GaitLabError(Exception):
    """Base class for all gaitlab errors; raise one of the three bases below."""
    exit_code: int

    def __init__(self, *args, path=None, line=None, source_id=None):
        super().__init__(*args)
        self.path, self.line, self.source_id = path, line, source_id  # the refused input's place

    def __str__(self):
        place = (self.path, self.line and f"line {self.line}",
                 self.source_id is not None and f"({self.source_id!r})")
        return ": ".join(filter(None, (" ".join(str(p) for p in place if p), super().__str__())))

    def __reduce__(self):
        """Pickle as ``args`` and attributes and unpickle calling no ``__init__``,
        as a subclass's takes fields, not the message: a worker's error needs this."""
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParseError(GaitLabError):
    """Malformed or unusable input."""
    exit_code = 2


class InsufficientDataError(GaitLabError):
    """Too few frames, videos or class members to go on."""
    exit_code = 3


class TooFewValidFrames(InsufficientDataError):
    def __init__(self, valid, required):
        self.valid = valid
        self.required = required
        super().__init__(f"only {valid} valid frames, need at least {required}")


class SchemaMismatch(GaitLabError):
    """Feature schema fingerprint disagreement."""
    exit_code = 4

    def __init__(self, expected, got):
        self.expected = expected
        self.got = got
        super().__init__(f"schema fingerprint mismatch: expected {expected}, got {got}")
