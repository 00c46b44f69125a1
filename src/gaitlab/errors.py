"""Exception hierarchy shared across the pipeline.

Every gaitlab error is one of three bases, and each base carries the exit
code the CLI gives it:

  ParseError.exit_code = 2             -- malformed or unusable input
  InsufficientDataError.exit_code = 3  -- too little data
  SchemaMismatch.exit_code = 4         -- feature schema disagreement

A subclass exists only for the attributes its callers read.
"""


class GaitLabError(Exception):
    """Base class for all gaitlab errors; raise one of the three bases below."""
    exit_code: int


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
    def __init__(self, what, frame_index=None):
        self.what = what
        self.frame_index = frame_index
        msg = f"degenerate line: coincident endpoints for {what}"
        if frame_index is not None:
            msg += f" (frame {frame_index})"
        super().__init__(msg)


class DegeneratePose(ParseError):
    def __init__(self, frame_index=None):
        self.frame_index = frame_index
        msg = "degenerate pose: all keypoints coincide"
        if frame_index is not None:
            msg += f" (frame {frame_index})"
        super().__init__(msg)


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
