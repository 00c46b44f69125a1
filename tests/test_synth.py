import hashlib

import numpy as np
import pytest

from gaitlab.ingest import filter_valid, load_keypoint_file, serialize_sequence
from gaitlab.pose import GaitLabel
from gaitlab.synth import (
    DEFAULT_COUNTS,
    GaitParams,
    default_params,
    generate,
    generate_corpus,
    read_manifest,
    write_corpus,
)
from gaitlab.video_features import featurize_sequence

from helpers import BS, CD, HL, LS, US

TORSO_PX = 100.0


def test_default_params_normal_is_zero():
    p = default_params(GaitLabel.NORMAL, 1)
    assert p.forward_lean_deg == 0
    assert p.arm_bend_deg == 0
    assert p.circumduct_left == p.circumduct_right == 0
    assert p.jitter_std == 0


def test_default_params_parkinson_leans_forward():
    p = default_params(GaitLabel.PARKINSON, 1)
    assert p.forward_lean_deg > 0
    assert p.arm_bend_deg > 0


def test_default_params_diplegia_both_legs():
    p = default_params(GaitLabel.DIPLEGIA, 1)
    assert p.circumduct_left == p.circumduct_right > 0
    h = default_params(GaitLabel.HEMIPLEGIA, 1)
    assert h.circumduct_right > 0 and h.circumduct_left == 0


def test_params_validation():
    with pytest.raises(ValueError):
        GaitParams(label=GaitLabel.NORMAL, n_frames=1)
    with pytest.raises(ValueError):
        GaitParams(label=GaitLabel.NORMAL, jitter_std=-0.1)
    nan, inf = float("nan"), float("inf")
    for bad in ({"n_frames": 2.5}, {"n_frames": True}, {"stride_period_frames": 0},
                {"stride_period_frames": -3}, {"stride_period_frames": nan},
                {"stride_period_frames": inf}, {"forward_lean_deg": nan},
                {"jitter_std": nan}, {"circumduct_left": inf}, {"arm_bend_deg": -inf}):
        with pytest.raises(ValueError):
            GaitParams(label=GaitLabel.NORMAL, **bad)
    assert len(generate(GaitParams(label=GaitLabel.NORMAL, n_frames=np.int64(2)))) == 2


def test_generate_deterministic():
    p = default_params(GaitLabel.CHOREIFORM, seed=123)
    a = generate(p, "x")
    b = generate(p, "x")
    assert serialize_sequence(a) == serialize_sequence(b)


def test_generated_frames_complete():
    seq = generate(default_params(GaitLabel.DIPLEGIA, 5), "d")
    assert len(seq) == 60
    _, report = filter_valid(seq, 0.5, 1)
    assert report.dropped_frames == 0


def test_normal_gait_is_straight():
    from gaitlab.frame_features import extract_sequence

    seq = generate(default_params(GaitLabel.NORMAL, 7), "n")
    feats, failed = extract_sequence(seq)
    assert failed == 0
    # per the model's construction: straight limbs and a collinear trunk,
    # every frame
    for ff in feats:
        assert (ff[LS] <= 0.02 * TORSO_PX).all()
        assert ff[US] <= 0.02 * TORSO_PX
        assert ff[BS] <= 0.02 * TORSO_PX
    vf = featurize_sequence(seq)
    assert vf.x[US] <= 0.02 * TORSO_PX


def test_parkinson_raises_upper_body_displacement():
    normal = featurize_sequence(generate(default_params(GaitLabel.NORMAL, 1), "n"))
    parkinson = featurize_sequence(generate(default_params(GaitLabel.PARKINSON, 1), "p"))
    assert parkinson.x[US] > normal.x[US]


def test_lean_monotonically_increases_us():
    values = []
    for lean in (0.0, 10.0, 20.0, 30.0):
        p = GaitParams(label=GaitLabel.PARKINSON, forward_lean_deg=lean, seed=5)
        values.append(featurize_sequence(generate(p, "m")).x[US])
    assert all(a < b for a, b in zip(values, values[1:]))


def test_corpus_default_counts():
    corpus = generate_corpus(seed=0, n_frames=4)
    assert len(corpus) == 258
    per_class = {label: sum(1 for _, l in corpus if l == label) for label in GaitLabel}
    assert per_class == DEFAULT_COUNTS


def test_corpus_single_normal():
    corpus = generate_corpus({GaitLabel.NORMAL: 1}, seed=0, n_frames=4)
    assert len(corpus) == 1
    assert corpus[0][1] is GaitLabel.NORMAL


def test_corpus_deterministic():
    a = generate_corpus({l: 2 for l in GaitLabel}, seed=9, n_frames=8)
    b = generate_corpus({l: 2 for l in GaitLabel}, seed=9, n_frames=8)
    assert [serialize_sequence(s) for s, _ in a] == [serialize_sequence(s) for s, _ in b]
    c = generate_corpus({l: 2 for l in GaitLabel}, seed=10, n_frames=8)
    assert [serialize_sequence(s) for s, _ in a] != [serialize_sequence(s) for s, _ in c]


def test_class_separability_from_normal():
    counts = {label: 12 for label in GaitLabel}
    corpus = generate_corpus(counts, seed=3)
    feats = {label: [] for label in GaitLabel}
    for seq, label in corpus:
        feats[label].append(featurize_sequence(seq))

    def gap(label, stat):
        a = np.array([stat(vf) for vf in feats[label]])
        n = np.array([stat(vf) for vf in feats[GaitLabel.NORMAL]])
        return abs(a.mean() - n.mean()) / max(a.std(), n.std(), 1e-12)

    # each abnormal class differs from Normal by >= 5 population stds in
    # its dominant feature family
    assert gap(GaitLabel.PARKINSON, lambda vf: vf.x[US]) >= 5
    assert gap(GaitLabel.HEMIPLEGIA, lambda vf: vf.x[HL].max()) >= 5
    assert gap(GaitLabel.DIPLEGIA, lambda vf: vf.x[HL].mean()) >= 5
    assert gap(GaitLabel.CHOREIFORM, lambda vf: vf.x[113:][CD].mean()) >= 5


def test_write_corpus_roundtrip(tmp_path):
    counts = {GaitLabel.NORMAL: 2, GaitLabel.PARKINSON: 2}
    written = write_corpus(tmp_path, counts, seed=4, n_frames=6)
    assert len(written) == 4
    labels = read_manifest(tmp_path / "manifest.csv")
    assert len(labels) == 4
    regenerated = dict(
        (s.source_id, s) for s, _ in generate_corpus(counts, seed=4, n_frames=6))
    for source_id, label in written:
        seq = load_keypoint_file(tmp_path / f"{source_id}.kp.jsonl")
        assert labels[source_id] is label
        assert seq == regenerated[source_id]


def corpus_digest(out_dir) -> str:
    """sha256 over each written file's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def test_write_corpus_bytes_pinned(tmp_path):
    """The generator's exact output, covering jitter and both circumduction
    sides: any change to the written bytes has to update this digest."""
    write_corpus(tmp_path, {label: 2 for label in GaitLabel}, seed=11, n_frames=12)
    assert corpus_digest(tmp_path) == (
        "1dffe289d4c7863e9ec34f3b1378a76e9110dc7111279559075ec85c6e833380")


def test_default_corpus_bytes_pinned(tmp_path):
    """The seed-42 default corpus (258 videos of 60 frames) that the benchmark
    and the pinned eval report read, byte for byte: a float written with
    another repr would parse back to the same value and pass every other check."""
    written = write_corpus(tmp_path, seed=42)
    assert len(written) == 258 and len(list(tmp_path.iterdir())) == 259
    assert corpus_digest(tmp_path) == (
        "45e69610c7c4b858ddd75c06b734b7acb99839d3da4403aabd42ee293a157908")
