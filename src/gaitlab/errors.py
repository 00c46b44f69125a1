"""Exception hierarchy shared across the pipeline.

Every gaitlab error is one of three bases, and each base carries the exit
code the CLI gives it:

  ParseError.exit_code = 2             -- malformed or unusable input
  InsufficientDataError.exit_code = 3  -- too little data
  SchemaMismatch.exit_code = 4         -- feature schema disagreement

A subclass exists only for the attributes its callers read.
"""

import copyreg


class GaitLabError(Exception):
    """Base class for all gaitlab errors; raise one of the three bases below."""
    exit_code: int

    def __reduce__(self):
        """Pickle as ``args`` and attributes, calling no ``__init__``: a
        subclass's takes fields, not the message, so the default round trip
        fails or doubles the message. A worker process's error needs this."""
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ParseError(GaitLabError):
    """Malformed or unusable input."""
    exit_code = 2


class MalformedLine(ParseError):
    def __init__(self, line_no, reason=""):
        self.line_no = line_no
        msg = f"malformed keypoint line {line_no}"
        if reason:
            msg += f": {reason}"
        super().__init__(msg)


class DuplicateFrame(ParseError):
    def __init__(self, frame_index):
        self.frame_index = frame_index
        super().__init__(f"duplicate frame index {frame_index}")


class DegenerateLine(ParseError):
    def __init__(self, what, frame_index):
        self.what = what
        self.frame_index = frame_index
        super().__init__(f"degenerate line: coincident endpoints for {what} (frame {frame_index})")


class DegeneratePose(ParseError):
    def __init__(self, frame_index):
        self.frame_index = frame_index
        super().__init__(f"degenerate pose: all keypoints coincide (frame {frame_index})")


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
