"""Fuzz tests: any file given to read_features_csv either reads or raises ParseError."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlab.errors import ParseError
from gaitlab.pose import GaitLabel
from gaitlab.video_features import (FeatureTable, read_features_csv, schema_config,
                                    write_features_csv)

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
