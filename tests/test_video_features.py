import numpy as np
import pytest

from gaitlab.errors import InsufficientDataError, ParseError, SchemaMismatch
from gaitlab.frame_features import extract_frame_features
from gaitlab.pose import GaitLabel
from gaitlab.video_features import (
    FeatureTable,
    aggregate,
    featurize_sequence,
    read_features_csv,
    schema_config,
    schema_fingerprint,
    write_features_csv,
)
from gaitlab.synth import default_params, generate

from helpers import random_frame, sequence_from_coords, vf_from_vector


def ff_constant(value, frame_index=0):
    return np.full(113, value)


def test_identical_frames_zero_std():
    vf = aggregate([ff_constant(2.5, i) for i in range(4)], "v")
    assert vf.x[:113] == pytest.approx(np.full(113, 2.5))
    assert vf.x[113:] == pytest.approx(np.zeros(113))


def test_two_frame_population_std():
    # values {1, 3} per dimension: mean 2, population std 1
    vf = aggregate([ff_constant(1.0, 0), ff_constant(3.0, 1)], "v")
    assert vf.x[:113] == pytest.approx(np.full(113, 2.0))
    assert vf.x[113:] == pytest.approx(np.ones(113))


def test_sample_std_mode():
    vf = aggregate([ff_constant(1.0, 0), ff_constant(3.0, 1)], "v", std_mode="sample")
    assert vf.x[113:] == pytest.approx(np.full(113, np.sqrt(2.0)))
    assert vf.schema_fingerprint != schema_fingerprint()


def test_output_dimension_226():
    rng = np.random.default_rng(0)
    feats = [extract_frame_features(random_frame(rng)) for i in range(5)]
    vf = aggregate(feats, "v")
    assert vf.vector().shape == (226,)


def test_mean_std_against_numpy_oracle():
    rng = np.random.default_rng(1)
    feats = [extract_frame_features(random_frame(rng)) for i in range(7)]
    matrix = np.stack(feats)
    vf = aggregate(feats, "v")
    assert vf.vector() == pytest.approx(
        np.concatenate([matrix.mean(axis=0), matrix.std(axis=0)]))


def test_vector_cannot_change_the_row():
    vf = vf_from_vector(np.arange(226.0))
    vec = vf.vector()
    with pytest.raises(ValueError, match="read-only"):
        vec[0] = -1.0
    assert vf.vector() == pytest.approx(np.arange(226.0), abs=0)
    assert vf.x[0] == 0.0


def test_too_few_frames():
    with pytest.raises(InsufficientDataError, match="need at least 2 frames to aggregate, got 1"):
        aggregate([ff_constant(1.0)], "v")


def test_permutation_invariance():
    rng = np.random.default_rng(2)
    feats = [extract_frame_features(random_frame(rng)) for i in range(6)]
    base = aggregate(feats, "v").vector()
    shuffled = [feats[i] for i in rng.permutation(6)]
    assert aggregate(shuffled, "v").vector() == pytest.approx(base)


def test_replication_invariance():
    rng = np.random.default_rng(3)
    feats = [extract_frame_features(random_frame(rng)) for i in range(4)]
    base = aggregate(feats, "v").vector()
    for k in (2, 3):
        assert aggregate(feats * k, "v").vector() == pytest.approx(base)


def test_featurize_sequence():
    seq = generate(default_params(GaitLabel.NORMAL, seed=1), "clip")
    vf = featurize_sequence(seq)
    assert vf.source_id == "clip"
    assert vf.vector().shape == (226,)


def test_non_finite_video_features_raise_parse_error():
    """Coordinates that are finite but so large that the features overflow
    are refused by name rather than written out as nan or inf."""
    base = generate(default_params(GaitLabel.NORMAL, seed=1), "clip")
    huge = sequence_from_coords(base.xy * 1e160, source_id="huge")
    with pytest.raises(ParseError, match="'huge'"):
        featurize_sequence(huge)
    with pytest.raises(ParseError, match="'v'"):
        aggregate([ff_constant(1.0), ff_constant(np.inf)], "v")
    assert np.isfinite(featurize_sequence(base).vector()).all()


def test_fingerprint_depends_on_config():
    prints = {
        schema_fingerprint("frame", "population"),
        schema_fingerprint("frame", "sample"),
        schema_fingerprint("video", "population"),
        schema_fingerprint("video", "sample"),
    }
    assert len(prints) == 4


@pytest.mark.parametrize("norm_scope, std_mode, fingerprint", [
    ("frame", "population", "3cda7040bdf4c2ef"),
    ("frame", "sample", "dd9b588d4613d46f"),
    ("video", "population", "3177d86aece88f37"),
    ("video", "sample", "8f609642c35817d7"),
])
def test_fingerprints_pinned(norm_scope, std_mode, fingerprint):
    """The four schema fingerprints that feature CSVs and models carry; a change
    to the feature names or their order has to move these."""
    assert schema_fingerprint(norm_scope, std_mode) == fingerprint
    assert schema_config(fingerprint) == (norm_scope, std_mode)


def test_schema_config_inverts_the_fingerprint():
    for norm_scope in ("frame", "video"):
        for std_mode in ("population", "sample"):
            fingerprint = schema_fingerprint(norm_scope, std_mode)
            assert schema_config(fingerprint) == (norm_scope, std_mode)
    assert schema_config("0123456789abcdef") is None


@pytest.mark.parametrize("fingerprint", [None, schema_fingerprint("video", "sample")],
                         ids=["default", "video-sample"])
def test_csv_roundtrip(tmp_path, fingerprint):
    rng = np.random.default_rng(4)
    rows = [
        (vf_from_vector(rng.uniform(-5, 5, 226), "a", fingerprint), GaitLabel.NORMAL),
        (vf_from_vector(rng.uniform(-5, 5, 226), "b", fingerprint), GaitLabel.PARKINSON),
        (vf_from_vector(rng.uniform(-5, 5, 226), "c", fingerprint), None),
    ]
    path = tmp_path / "features.csv"
    write_features_csv(FeatureTable.from_rows(rows), path)
    back = read_features_csv(path)
    assert [vf.source_id for vf, _ in back] == ["a", "b", "c"]
    assert [label for _, label in back] == [GaitLabel.NORMAL, GaitLabel.PARKINSON, None]
    for (vf0, _), (vf1, _) in zip(rows, back):
        assert vf1.vector() == pytest.approx(vf0.vector(), abs=0)  # exact float round-trip
        assert vf1.schema_fingerprint == vf0.schema_fingerprint


def test_csv_header_ends_with_the_schema_cell(tmp_path):
    path = tmp_path / "features.csv"
    fingerprint = schema_fingerprint("video")
    write_features_csv(FeatureTable.from_rows([(vf_from_vector(np.ones(226), "a", fingerprint),
                                                None)]), path)
    header, row = path.read_text().splitlines()
    assert header.split(",")[:2] == ["source_id", "label"]
    assert header.split(",")[-1] == f"schema={fingerprint}"
    assert len(header.split(",")) == 229 and len(row.split(",")) == 228


def test_write_refuses_mixed_fingerprints_and_no_rows(tmp_path):
    rows = [(vf_from_vector(np.ones(226), "a"), None),
            (vf_from_vector(np.ones(226), "b", schema_fingerprint("video")), None)]
    with pytest.raises(SchemaMismatch):
        write_features_csv(FeatureTable.from_rows(rows), tmp_path / "mixed.csv")
    with pytest.raises(ValueError):
        write_features_csv(FeatureTable.from_rows([]), tmp_path / "empty.csv")
    assert not (tmp_path / "mixed.csv").exists()


def test_feature_table_from_rows():
    rng = np.random.default_rng(6)
    vectors = rng.normal(size=(3, 226))
    fingerprint = schema_fingerprint("video")
    labels = [GaitLabel.NORMAL, None, GaitLabel.NORMAL]
    rows = [(vf_from_vector(v, f"v{i}", fingerprint), label)
            for i, (v, label) in enumerate(zip(vectors, labels))]
    table = FeatureTable.from_rows(rows)
    assert len(table) == 3 and table.source_ids == ("v0", "v1", "v2")
    assert table.X.shape == (3, 226) and table.X.tobytes() == vectors.tobytes()
    assert table.labels.dtype == object
    assert list(table.labels) == [GaitLabel.NORMAL, None, GaitLabel.NORMAL]
    assert table.fingerprint == fingerprint
    empty = FeatureTable.from_rows([])
    assert len(empty) == 0 and empty.X.shape == (0, 226) and empty.fingerprint is None


def test_feature_table_refuses_mixed_fingerprints():
    rows = [(vf_from_vector(np.ones(226), "a"), GaitLabel.NORMAL),
            (vf_from_vector(np.ones(226), "b", schema_fingerprint("frame", "sample")),
             GaitLabel.NORMAL)]
    with pytest.raises(SchemaMismatch):
        FeatureTable.from_rows(rows)


def test_feature_table_rows_by_mask_and_index():
    rng = np.random.default_rng(5)
    labels = [GaitLabel.NORMAL, GaitLabel.PARKINSON, None]
    table = FeatureTable.from_rows([(vf_from_vector(rng.normal(size=226), f"v{i}"), labels[i % 3])
                                    for i in range(5)])
    mask = np.array([True, False, True, False, True])
    for rows in (mask, np.array([0, 2, 4]), slice(0, 5, 2)):
        sub = table[rows]
        assert sub.source_ids == ("v0", "v2", "v4")
        assert sub.X.tobytes() == table.X[[0, 2, 4]].tobytes()
        assert list(sub.labels) == [GaitLabel.NORMAL, None, GaitLabel.PARKINSON]
        assert sub.fingerprint == table.fingerprint
    assert table[np.array([3, 1])].source_ids == ("v3", "v1")
    none = table[np.zeros(5, dtype=bool)]
    assert len(none) == 0 and none.X.shape == (0, 226) and none.fingerprint == table.fingerprint


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ParseError):
        read_features_csv(path)


def _replace_first(old, new):
    return lambda data: data.replace(old, new, 1)


@pytest.mark.parametrize("edit", [
    lambda data: data.replace(b",schema=" + schema_fingerprint().encode(), b""),
    _replace_first(b"schema=" + schema_fingerprint().encode(), b"schema=0123456789abcdef"),
    _replace_first(b"schema=", b""),
    _replace_first(b"1.0", b"1" * 200_000),  # longer than the csv module's field limit
    _replace_first(b"\r\na,", b"\r\n\xff,"),
    _replace_first(b"1.0", b"1.0,1.0"),
    _replace_first(b",1.0", b""),
    _replace_first(b"1.0", b"one"),
    _replace_first(b"Normal", b"Limping"),
], ids=["no schema cell", "unknown fingerprint", "schema cell without its name", "csv.Error",
        "non-UTF-8", "long row", "short row", "not a number", "unknown label"])
def test_csv_defects_raise_parse_error(tmp_path, edit):
    path = tmp_path / "features.csv"
    write_features_csv(FeatureTable.from_rows([(vf_from_vector(np.ones(226), "a"),
                                                GaitLabel.NORMAL)]), path)
    data = path.read_bytes()
    path.write_bytes(edit(data))
    assert path.read_bytes() != data
    with pytest.raises(ParseError):
        read_features_csv(path)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_csv_rejects_non_finite_values(tmp_path, bad):
    path = tmp_path / "features.csv"
    write_features_csv(FeatureTable.from_rows([(vf_from_vector(np.ones(226), "a"),
                                                GaitLabel.NORMAL)]), path)
    path.write_text(path.read_text().replace("1.0", bad, 1))
    with pytest.raises(ParseError):
        read_features_csv(path)
