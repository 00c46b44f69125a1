"""Fuzz tests: any file given to read_features_csv either reads or raises
ParseError, and csv_line writes the bytes csv.writer writes."""

import csv
import io
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitlab.errors import ParseError
from gaitlab.pose import GaitLabel
from gaitlab.video_features import (N_VIDEO_FEATURES, FeatureTable, csv_line,
                                    read_features_csv, schema_config, write_features_csv)

from helpers import vf_from_vector


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A scratch file path and the bytes of a valid two-row features CSV."""
    root = tmp_path_factory.mktemp("csv_fuzz")
    valid = root / "valid.csv"
    rng = np.random.default_rng(8)
    write_features_csv(FeatureTable.from_rows(
        [(vf_from_vector(rng.uniform(-5, 5, 226), "a"), GaitLabel.NORMAL),
         (vf_from_vector(rng.uniform(-5, 5, 226), "b"), None)]), valid)
    return root / "fuzzed.csv", valid.read_bytes()


def reads_or_raises_parse_error(path, data):
    path.write_bytes(data)
    try:
        rows = read_features_csv(path)
    except ParseError:
        return
    for vf, label in rows:
        assert vf.vector().shape == (226,) and np.isfinite(vf.vector()).all()
        assert schema_config(vf.schema_fingerprint) is not None
        assert label is None or isinstance(label, GaitLabel)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_any_bytes(work, data):
    reads_or_raises_parse_error(work[0], data)


# (position as a share of the file, bytes that replace the byte there; b"" deletes it)
byte_edits = st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.binary(max_size=3)),
                      min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(byte_edits)
def test_valid_file_with_byte_edits(work, edits):
    path, data = work
    for share, new in edits:
        at = int(share * len(data))
        data = data[:at] + new + data[at + 1:]
    reads_or_raises_parse_error(path, data)


# (line, cell as shares of the file's lines and of that line's cells, new text)
cell_edits = st.lists(
    st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True),
              st.one_of(st.text(max_size=8), st.sampled_from(
                  ["", "nan", "-inf", "1e400", "Normal", "parkinson ", "schema=", '"1,2"']))),
    min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(cell_edits)
def test_valid_file_with_cell_edits(work, edits):
    path, data = work
    lines = data.decode().split("\r\n")
    for line_share, cell_share, text in edits:
        i = int(line_share * len(lines))
        cells = lines[i].split(",")
        cells[int(cell_share * len(cells))] = text
        lines[i] = ",".join(cells)
    reads_or_raises_parse_error(path, "\r\n".join(lines).encode())


# the floats whose reprs take each of their forms: a sign on zero, the least
# subnormal, exponent notation above and below, the largest float
EDGE_FLOATS = [-0.0, 5e-324, 1e16, 1e-05, sys.float_info.max]
source_ids = st.text(st.one_of(st.sampled_from(',"\r\n'), st.characters(codec="utf-8")),
                     max_size=12)
# a few drawn values repeated to a row's length: drawing all 226 is ten times slower
finite_rows = st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=12).map(lambda v: np.resize(v, N_VIDEO_FEATURES))


@settings(max_examples=300, deadline=None)
@given(source_ids, st.sampled_from([None, *GaitLabel]), finite_rows)
@example('a,"b"\r\n', None, np.resize(EDGE_FLOATS, N_VIDEO_FEATURES))
@example("", GaitLabel.NORMAL, np.full(N_VIDEO_FEATURES, -0.0))
def test_csv_line_writes_the_csv_writer_row(source_id, label, x):
    """The one row formatter gives csv.writer's bytes for the same cells, and
    the row reads back with its source_id and label cells."""
    expected = io.StringIO()
    csv.writer(expected).writerow([source_id, "" if label is None else label.value]
                                  + [repr(v) for v in x.tolist()])
    line = csv_line(source_id, label, x)
    assert line == expected.getvalue()
    cells = next(csv.reader(io.StringIO(line, newline="")))
    assert cells[:2] == [source_id, "" if label is None else label.value]
