import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gaitlab import frame_features as ff
from gaitlab.errors import DegenerateLine, DegeneratePose, ParseError
from gaitlab.frame_features import EPS, FEATURE_NAMES, NORM_SCOPES, extract_sequence
from gaitlab.pose import KeypointId
from gaitlab.synth import default_params, generate
from gaitlab.pose import GaitLabel

from helpers import (
    BS,
    CD,
    HL,
    LS,
    MD,
    US,
    bs_direct_oracle,
    coords_with,
    distance_maxima_oracle,
    extract_frame_features,
    geometry_oracle,
    left_arm_pose,
    line_lengths_oracle,
    random_frame,
    sequence_from_coords,
    slope_distance_oracle,
    us_direct_oracle,
)

K = KeypointId


# --- point-line distance, read as the ls1 of a pose ----------------------------
# left_arm_pose(p, a, b) puts the left shoulder at a, the left wrist at b and
# the left elbow at p, so its ls1 is p's distance from the line through a and b


def ls1(*poses):
    """ls1 of each pose, as extract_sequence computes it."""
    feats, _ = extract_sequence(sequence_from_coords(poses), skip_degenerate=False)
    return feats[:, 0]


def test_point_line_distance_horizontal():
    assert ls1(left_arm_pose((1, 1), (0, 0), (2, 0)))[0] == pytest.approx(1.0)


def test_point_line_distance_on_segment():
    assert ls1(left_arm_pose((1, 0), (0, 0), (2, 0)))[0] == 0.0


def test_point_line_distance_vertical_line():
    # slope-intercept form is undefined here; the cross-product form is not
    assert ls1(left_arm_pose((5, 3), (2, 0), (2, 10)))[0] == 3.0


def test_point_line_distance_degenerate():
    with pytest.raises(DegenerateLine) as exc:
        ls1(left_arm_pose((1, 1), (3, 3), (3, 3)))
    assert exc.value.what == "left-hand"


def test_point_line_distance_matches_slope_oracle():
    rng = np.random.default_rng(3)
    cases = []
    for _ in range(200):
        a, b, p = rng.uniform(0, 320, (3, 2))
        if abs(a[0] - b[0]) < 0.05:
            continue  # slope form undefined/ill-conditioned
        cases.append((p, a, b))
    got = ls1(*(left_arm_pose(p, a, b) for p, a, b in cases))
    expected = [slope_distance_oracle(p, a, b) for p, a, b in cases]
    assert got.tolist() == pytest.approx(expected, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("p, a, b, error, message", [
    # finite, but the cross product overflows
    ((1e160, 3e160), (0, 0), (4e160, 1e160), ParseError, "frame 0 has non-finite features"),
    ((1, 1), (0, 0), (np.nan, 2), ValueError, "frame 0 is missing keypoints"),
    ((1, np.inf), (0, 0), (2, 0), ParseError, "frame 0 has non-finite features"),
], ids=["overflow", "nan", "inf"])
def test_point_line_distance_refuses_non_finite_results(p, a, b, error, message):
    with pytest.raises(error, match=message):
        ls1(left_arm_pose(p, a, b))


def test_overflowing_coordinates_raise_parse_error_naming_source_and_frame():
    """Coordinates so large that the features overflow are refused, naming the
    video and its first such frame, instead of coming back as NaN features."""
    base = generate(default_params(GaitLabel.NORMAL, seed=1), "clip")
    xy = base.xy.copy()
    xy[5:] *= 1e160
    seq = sequence_from_coords(xy, frame_index=np.arange(len(xy)) + 10, source_id="big")
    for norm_scope in NORM_SCOPES:
        with pytest.raises(ParseError, match="'big' frame 15 has non-finite features"):
            extract_sequence(seq, norm_scope=norm_scope)
    with pytest.raises(ParseError, match="frame 0 has non-finite features"):
        extract_frame_features(base.xy[0] * 1e160)
    assert np.isfinite(extract_sequence(sequence_from_coords(xy[:5]))[0]).all()


def test_extract_sequence_refuses_an_unknown_norm_scope():
    seq = generate(default_params(GaitLabel.NORMAL, seed=1), "clip")
    with pytest.raises(ValueError, match="norm_scope must be 'frame' or 'video', got 'clip'"):
        extract_sequence(seq, norm_scope="clip")


# --- limb straightness ----------------------------------------------------------


def test_limb_straightness_straight_arm():
    xy = coords_with({K.LEFT_SHOULDER: (0, 0), K.LEFT_ELBOW: (1, 0), K.LEFT_WRIST: (2, 0)})
    assert extract_frame_features(xy)[LS][0] == pytest.approx(0.0, abs=1e-12)


def test_limb_straightness_bent_arm():
    xy = coords_with({K.LEFT_SHOULDER: (0, 0), K.LEFT_ELBOW: (1, 1), K.LEFT_WRIST: (2, 0)})
    expected = slope_distance_oracle((1, 1), (0, 0), (2, 0))
    assert extract_frame_features(xy)[LS][0] == pytest.approx(expected)
    assert expected == pytest.approx(1.0)


def test_limb_straightness_degenerate_names_limb():
    xy = coords_with({K.LEFT_SHOULDER: (3, 3), K.LEFT_WRIST: (3, 3)})
    with pytest.raises(DegenerateLine) as exc:
        extract_frame_features(xy)
    assert exc.value.what == "left-hand"


def test_limb_straightness_order():
    # bend only the right leg; all other limbs straight
    xy = coords_with({
        K.LEFT_SHOULDER: (0, 0), K.LEFT_ELBOW: (0, 10), K.LEFT_WRIST: (0, 20),
        K.RIGHT_SHOULDER: (30, 0), K.RIGHT_ELBOW: (30, 10), K.RIGHT_WRIST: (30, 20),
        K.LEFT_HIP: (0, 50), K.LEFT_KNEE: (0, 60), K.LEFT_ANKLE: (0, 70),
        K.RIGHT_HIP: (30, 50), K.RIGHT_KNEE: (35, 60), K.RIGHT_ANKLE: (30, 70),
    })
    values = extract_frame_features(xy)[LS]
    assert values[:3] == pytest.approx([0, 0, 0], abs=1e-12)
    assert values[3] == pytest.approx(5.0)


# --- hand-leg coordination ------------------------------------------------------


def pair_frame(hand_dir, leg_dir):
    """Left hand with direction hand_dir, right leg with direction leg_dir."""
    xy = coords_with({
        K.LEFT_SHOULDER: (0, 0),
        K.LEFT_WRIST: hand_dir,
        K.RIGHT_HIP: (100, 100),
        K.RIGHT_ANKLE: (100 + leg_dir[0], 100 + leg_dir[1]),
    })
    return xy


def test_hand_leg_parallel():
    angles = extract_frame_features(pair_frame((0, 2), (0, 5)))[HL]
    assert angles[0] == pytest.approx(0.0, abs=1e-12)


def test_hand_leg_perpendicular():
    angles = extract_frame_features(pair_frame((1, 0), (0, 1)))[HL]
    assert angles[0] == pytest.approx(math.pi / 2)


def test_hand_leg_forty_five():
    angles = extract_frame_features(pair_frame((1, 1), (1, 0)))[HL]
    assert angles[0] == pytest.approx(math.pi / 4)


def test_hand_leg_degenerate():
    xy = coords_with({K.RIGHT_HIP: (9, 9), K.RIGHT_ANKLE: (9, 9)})
    with pytest.raises(DegenerateLine) as exc:
        extract_frame_features(xy)
    assert exc.value.what == "right-leg"


def test_hand_leg_endpoint_swap_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(50):
        xy = random_frame(rng)
        base = extract_frame_features(xy)[HL]
        # swap shoulder/wrist of the left hand: direction negates
        swapped = xy.copy()
        swapped[K.LEFT_SHOULDER - 1], swapped[K.LEFT_WRIST - 1] = (
            xy[K.LEFT_WRIST - 1].copy(), xy[K.LEFT_SHOULDER - 1].copy())
        assert extract_frame_features(swapped)[HL] == pytest.approx(base)
        assert 0.0 <= base[0] <= math.pi / 2 + 1e-12


# --- upper-body / body straightness ----------------------------------------------


def test_upper_body_collinear():
    xy = coords_with({
        K.LEFT_EAR: (0, 0), K.RIGHT_EAR: (0, 0),
        K.LEFT_SHOULDER: (0, 5), K.RIGHT_SHOULDER: (0, 5),
        K.LEFT_HIP: (0, 10), K.RIGHT_HIP: (0, 10),
    })
    assert extract_frame_features(xy)[US] == pytest.approx(0.0, abs=1e-12)


def test_upper_body_displaced():
    xy = coords_with({
        K.LEFT_EAR: (-1, 0), K.RIGHT_EAR: (1, 0),
        K.LEFT_SHOULDER: (1, 5), K.RIGHT_SHOULDER: (3, 5),
        K.LEFT_HIP: (-1, 10), K.RIGHT_HIP: (1, 10),
    })
    # midpoints (0,0), (2,5), (0,10): shoulder is 2 off the vertical axis
    assert extract_frame_features(xy)[US] == pytest.approx(2.0)


def test_upper_body_degenerate():
    xy = coords_with({
        K.LEFT_EAR: (5, 5), K.RIGHT_EAR: (5, 5),
        K.LEFT_SHOULDER: (5, 5), K.RIGHT_SHOULDER: (5, 5),
        K.LEFT_HIP: (5, 5), K.RIGHT_HIP: (5, 5),
    })
    with pytest.raises(DegenerateLine) as exc:
        extract_frame_features(xy)
    assert exc.value.what == "upper-body axis"


def test_body_straightness_cases():
    collinear = coords_with({
        K.LEFT_SHOULDER: (0, 0), K.RIGHT_SHOULDER: (0, 0),
        K.LEFT_HIP: (0, 6), K.RIGHT_HIP: (0, 6),
        K.LEFT_ANKLE: (0, 12), K.RIGHT_ANKLE: (0, 12),
    })
    assert extract_frame_features(collinear)[BS] == pytest.approx(0.0, abs=1e-12)
    displaced = coords_with({
        K.LEFT_SHOULDER: (0, 0), K.RIGHT_SHOULDER: (0, 0),
        K.LEFT_HIP: (3, 6), K.RIGHT_HIP: (3, 6),
        K.LEFT_ANKLE: (0, 12), K.RIGHT_ANKLE: (0, 12),
    })
    assert extract_frame_features(displaced)[BS] == pytest.approx(3.0)
    degenerate = coords_with({
        K.LEFT_SHOULDER: (1, 1), K.RIGHT_SHOULDER: (1, 1),
        K.LEFT_ANKLE: (1, 1), K.RIGHT_ANKLE: (1, 1),
    })
    with pytest.raises(DegenerateLine) as exc:
        extract_frame_features(degenerate)
    assert exc.value.what == "body axis"


def test_us_bs_match_direct_formula():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        xy = random_frame(rng)
        if abs(xy[0, 0] + xy[1, 0] - xy[8, 0] - xy[9, 0]) < 0.05:
            continue
        if abs(xy[2, 0] + xy[3, 0] - xy[12, 0] - xy[13, 0]) < 0.05:
            continue
        ff = extract_frame_features(xy)
        assert ff[US] == pytest.approx(us_direct_oracle(xy), rel=1e-6, abs=1e-9)
        assert ff[BS] == pytest.approx(bs_direct_oracle(xy), rel=1e-6, abs=1e-9)
        checked += 1


# --- central / mutual distances ---------------------------------------------------


def test_central_distances_circle():
    angles = np.linspace(0, 2 * math.pi, 14, endpoint=False)
    xy = 50 + 7.5 * np.column_stack([np.cos(angles), np.sin(angles)])
    cd = extract_frame_features(xy)[CD]
    assert cd == pytest.approx(np.ones(14))


def test_central_distances_constructed():
    # 5 cancelling unit pairs + three unit vectors summing to (2,0) + (-2,0):
    # centroid is the origin, 13 points at distance 1 and one at distance 2;
    # the pairs' halves are apart, so no two joints of a defining line meet
    units = [np.array([math.cos(theta), math.sin(theta)]) for theta in np.linspace(0.3, 1.5, 5)]
    pts = units + [-u for u in units]
    s = math.sqrt(3) / 2
    pts += [np.array([1.0, 0.0]), np.array([0.5, s]), np.array([0.5, -s])]
    pts.append(np.array([-2.0, 0.0]))
    xy = np.stack(pts)
    assert np.allclose(xy.mean(axis=0), 0.0)
    cd = extract_frame_features(xy)[CD]
    expected = np.full(14, 0.5)
    expected[13] = 1.0  # the distance-2 point, normalized by the max
    assert cd == pytest.approx(expected)


def test_central_distances_degenerate():
    collapsed = np.full((14, 2), 3.0)
    with pytest.raises(DegenerateLine) as exc:  # its lines are short before its distances
        extract_frame_features(collapsed)
    assert exc.value.what == "left-hand"
    good = generate(default_params(GaitLabel.NORMAL, seed=1), "g").xy[0]
    feats, failed = extract_sequence(sequence_from_coords([collapsed, good]))
    assert failed == 1 and feats == pytest.approx(extract_frame_features(good)[None])


def test_collapsed_pose_with_long_lines_raises_degenerate_pose():
    """Every defining line is at least 1.13e-9 px long, but no joint is 1e-9 px
    from the centroid (9.1e-10 px at most): a collapsed pose, not a short line."""
    r = 0.8e-9
    xy = np.zeros((14, 2))
    for joints, point in (((K.LEFT_EAR, K.RIGHT_EAR), (0, r)),
                          ((K.LEFT_HIP, K.RIGHT_HIP), (0, -r)),
                          ((K.LEFT_SHOULDER, K.RIGHT_SHOULDER), (r, 0)),
                          ((K.LEFT_WRIST, K.RIGHT_WRIST, K.LEFT_ANKLE, K.RIGHT_ANKLE), (-r, 0))):
        for k in joints:
            xy[k - 1] = point
    pose = xy.tolist()
    assert degeneracy_oracle(pose) == (DegeneratePose, None)
    assert min(length for family in LINE_FAMILIES
               for _, length in line_lengths_oracle(pose, family)) > 1.1e-9
    with pytest.raises(DegeneratePose):
        extract_frame_features(xy)
    good = generate(default_params(GaitLabel.NORMAL, seed=1), "g").xy[0]
    seq = sequence_from_coords([good, xy], frame_index=[2, 7])
    with pytest.raises(DegeneratePose) as exc:
        extract_sequence(seq, skip_degenerate=False)
    assert exc.value.frame_index == 7
    feats, failed = extract_sequence(seq)
    assert failed == 1 and feats == pytest.approx(extract_frame_features(good)[None])


def test_mutual_distances_count_and_order():
    rng = np.random.default_rng(6)
    xy = random_frame(rng)
    md = extract_frame_features(xy)[MD]
    assert md.shape == (91,)
    # brute-force all-pairs oracle in lexicographic order
    raw = [math.dist(xy[i], xy[j]) for i in range(14) for j in range(i + 1, 14)]
    expected = np.array(raw) / max(raw)
    assert md == pytest.approx(expected)


def test_mutual_distances_two_clusters():
    # 7 joints at each of two points, split so that no defining line collapses
    far = {K.LEFT_WRIST, K.RIGHT_WRIST, K.LEFT_HIP, K.RIGHT_ANKLE,
           K.LEFT_ELBOW, K.RIGHT_ELBOW, K.RIGHT_KNEE}
    xy = np.array([(3.0, 4.0) if k in far else (0.0, 0.0) for k in K])
    md = extract_frame_features(xy)[MD]
    assert set(np.round(md, 12)) == {0.0, 1.0}
    # 7*7 cross-cluster pairs at the max distance
    assert int((md == 1.0).sum()) == 49


def test_mutual_distances_degenerate():
    collapsed = np.zeros((14, 2))
    with pytest.raises(DegenerateLine) as exc:  # its lines are short before its distances
        extract_frame_features(collapsed)
    assert exc.value.what == "left-hand"
    feats, failed = extract_sequence(sequence_from_coords([collapsed]))
    assert feats.shape == (0, 113) and failed == 1


def test_mutual_distances_synthetic_pose_vs_oracle():
    xy = generate(default_params(GaitLabel.NORMAL, seed=9), "t").xy[0]
    md = extract_frame_features(xy)[MD]
    raw = [math.dist(xy[i], xy[j]) for i in range(14) for j in range(i + 1, 14)]
    assert md == pytest.approx(np.array(raw) / max(raw))


# --- assembly and invariances ------------------------------------------------------


def test_feature_vector_dimension():
    rng = np.random.default_rng(7)
    ff = extract_frame_features(random_frame(rng))
    assert ff.shape == (113,)
    assert len(FEATURE_NAMES) == 113


def test_upright_pose_is_straight():
    xy = generate(default_params(GaitLabel.NORMAL, seed=0), "u").xy[0]
    ff = extract_frame_features(xy)
    assert ff[LS] == pytest.approx(np.zeros(4), abs=1e-9)
    assert ff[US] == pytest.approx(0.0, abs=1e-9)
    assert ff[BS] == pytest.approx(0.0, abs=1e-9)


def test_degenerate_error_carries_frame_index():
    seq = sequence_from_coords(np.zeros((1, 14, 2)), frame_index=[17])
    with pytest.raises((DegenerateLine, DegeneratePose)) as exc:
        extract_sequence(seq, skip_degenerate=False)
    assert exc.value.frame_index == 17


def test_translation_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        xy = random_frame(rng)
        shift = rng.uniform(-500, 500, 2)
        moved = xy + shift
        base = extract_frame_features(xy)
        assert extract_frame_features(moved) == pytest.approx(base, abs=1e-9)


def test_rotation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        xy = random_frame(rng)
        theta = rng.uniform(0, 2 * math.pi)
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        rotated = xy @ rot.T
        base = extract_frame_features(xy)
        got = extract_frame_features(rotated)
        assert got == pytest.approx(base, rel=1e-6, abs=1e-9)


def test_scale_behavior():
    rng = np.random.default_rng(10)
    for _ in range(50):
        xy = random_frame(rng)
        s = float(rng.uniform(0.1, 10))
        scaled = xy * s
        base = extract_frame_features(xy)
        got = extract_frame_features(scaled)
        # normalized distances and angles are scale-invariant
        assert got[HL] == pytest.approx(base[HL], rel=1e-6)
        assert got[CD] == pytest.approx(base[CD], rel=1e-6)
        assert got[MD] == pytest.approx(base[MD], rel=1e-6)
        # straightness distances scale linearly
        assert got[LS] == pytest.approx(s * base[LS], rel=1e-6, abs=1e-9)
        assert got[US] == pytest.approx(s * base[US], rel=1e-6, abs=1e-9)
        assert got[BS] == pytest.approx(s * base[BS], rel=1e-6, abs=1e-9)


def test_normalized_blocks_in_range_with_unit_max():
    rng = np.random.default_rng(11)
    for _ in range(50):
        vec = extract_frame_features(random_frame(rng))
        for block in (vec[CD], vec[MD]):
            assert block.min() >= 0.0
            assert block.max() == pytest.approx(1.0, abs=1e-12)


def test_extract_sequence_video_scope():
    seq = generate(default_params(GaitLabel.NORMAL, seed=2), "v")
    per_video, failed = extract_sequence(seq, norm_scope="video")
    assert failed == 0
    cd_all = per_video[:, CD]
    md_all = per_video[:, MD]
    # one shared max per block across the whole video
    assert cd_all.max() == pytest.approx(1.0, abs=1e-12)
    assert md_all.max() == pytest.approx(1.0, abs=1e-12)
    assert (cd_all <= 1.0 + 1e-12).all() and (md_all <= 1.0 + 1e-12).all()
    # frame scope normalizes every frame to its own max
    per_frame, _ = extract_sequence(seq, norm_scope="frame")
    for ff in per_frame:
        assert ff[CD].max() == pytest.approx(1.0, abs=1e-12)


def test_extract_sequence_skips_degenerate_frames():
    good = generate(default_params(GaitLabel.NORMAL, seed=3), "g").xy[0]
    seq = sequence_from_coords([good, np.zeros((14, 2))], source_id="mix")
    feats, failed = extract_sequence(seq)
    assert len(feats) == 1 and failed == 1
    with pytest.raises((DegenerateLine, DegeneratePose)):
        extract_sequence(seq, skip_degenerate=False)


def test_kernel_rows_match_single_pose_features():
    rng = np.random.default_rng(13)
    xy = rng.uniform(0, 320, (6, 14, 2))
    feats, failed = extract_sequence(sequence_from_coords(xy))
    assert failed == 0
    for t in range(6):
        assert feats[t] == pytest.approx(extract_frame_features(xy[t]), rel=1e-12, abs=1e-12)
    for pose, row in zip(xy, feats):
        assert np.cos(row[HL]) == pytest.approx(hand_leg_cosines_oracle(pose), abs=1e-12)


def assert_geometry_bits(xy):
    for got, want in zip(ff._geometry(xy), geometry_oracle(xy)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e3, 1e150, 1e300])
def test_geometry_matches_the_point_by_point_oracle_bit_for_bit(scale):
    """The plane-wise differences and x/y norms keep the bits of the
    point-by-point arithmetic, signed zeros included."""
    xy = np.random.default_rng(7).uniform(-1.0, 1.0, (40, 14, 2)) * scale
    xy[1, 3] = xy[1, 2]  # coincident joints
    xy[2] = xy[2, 0]  # all joints coincide
    xy[3, :, 0] = -0.0
    xy[4] = 0.0
    xy[5, ::2] = -0.0
    xy[7, ::2], xy[7, 1::2] = -0.0, 0.0  # -0.0 joints against +0.0 joints
    assert np.isfinite(xy).all()
    assert_geometry_bits(xy)
    assert_geometry_bits(xy[6])  # a single (14, 2) pose


def test_geometry_of_points_beyond_the_float_range_matches_the_oracle():
    """Where a midpoint overflows or a joint is infinite, the measurements
    still keep the oracle's bits."""
    xy = np.random.default_rng(8).uniform(0.0, 320.0, (4, 14, 2))
    xy[1, [K.LEFT_EAR - 1, K.RIGHT_EAR - 1]] = 1.7e308
    xy[2, K.LEFT_WRIST - 1, 1] = -np.inf
    assert_geometry_bits(xy)
    assert_geometry_bits(xy[1])


def hand_leg_cosines_oracle(pose):
    """Cosines of [hl1, hl2] of one pose: of the angle between each undirected
    hand line and the opposite leg line, from the dot product in plain Python."""
    def direction(a, b):
        return pose[b - 1][0] - pose[a - 1][0], pose[b - 1][1] - pose[a - 1][1]

    cosines = []
    for hand, leg in (((K.LEFT_SHOULDER, K.LEFT_WRIST), (K.RIGHT_HIP, K.RIGHT_ANKLE)),
                      ((K.RIGHT_SHOULDER, K.RIGHT_WRIST), (K.LEFT_HIP, K.LEFT_ANKLE))):
        (ux, uy), (vx, vy) = direction(*hand), direction(*leg)
        cosines.append(abs(ux * vx + uy * vy) / (math.hypot(ux, uy) * math.hypot(vx, vy)))
    return cosines


def test_kernel_reports_first_degeneracy_in_precedence_order():
    base = coords_with({})
    cases = [
        # both the right leg and the body axis collapse: the limb comes first
        ({K.RIGHT_HIP: (9, 9), K.RIGHT_ANKLE: (9, 9), K.LEFT_ANKLE: (9, 9),
          K.LEFT_SHOULDER: (1, 1), K.RIGHT_SHOULDER: (17, 17)}, "right-leg"),
        ({K.LEFT_EAR: (5, 5), K.RIGHT_EAR: (5, 5), K.LEFT_HIP: (6, 4),
          K.RIGHT_HIP: (4, 6)}, "upper-body axis"),
        ({K.LEFT_SHOULDER: (1, 1), K.RIGHT_SHOULDER: (3, 3),
          K.LEFT_ANKLE: (2, 3), K.RIGHT_ANKLE: (2, 1)}, "body axis"),
    ]
    for overrides, what in cases:
        xy = np.stack([base, coords_with(overrides)])
        seq = sequence_from_coords(xy, frame_index=[4, 9])
        with pytest.raises(DegenerateLine) as exc:
            extract_sequence(seq, skip_degenerate=False)
        assert (exc.value.what, exc.value.frame_index) == (what, 9)
        feats, failed = extract_sequence(seq)
        assert failed == 1 and feats == pytest.approx(extract_frame_features(base)[None])


def test_video_scope_max_ignores_degenerate_frames():
    good = generate(default_params(GaitLabel.NORMAL, seed=4), "g").xy[:3]
    huge = good[0] * 1000.0
    huge[K.LEFT_WRIST - 1] = huge[K.LEFT_SHOULDER - 1]  # degenerate, and far larger
    seq = sequence_from_coords(np.concatenate([good, huge[None]]))
    feats, failed = extract_sequence(seq, norm_scope="video")
    assert failed == 1
    assert feats[:, MD].max() == pytest.approx(1.0, abs=1e-12)
    alone, _ = extract_sequence(sequence_from_coords(good), norm_scope="video")
    assert feats == pytest.approx(alone, rel=1e-12)


def test_extract_sequence_refuses_missing_keypoints():
    xy = generate(default_params(GaitLabel.NORMAL, seed=5), "m").xy[:3].copy()
    xy[1, K.RIGHT_KNEE - 1] = np.nan  # how the parser stores an absent joint
    with pytest.raises(ValueError, match="frame 1"):
        extract_sequence(sequence_from_coords(xy))


# --- the kernel against a plain-Python degeneracy oracle ---------------------------

# the kernel's defining lines in the order it reports them; the hand-leg lines
# are the limbs' lines again, so a short one always has its limb named first
LINE_FAMILIES = ("limb", "hand-leg", "upper-body", "body")

# joints on a small integer grid whose size each frame draws, so that joints
# coincide often and a grid of one point collapses the whole pose
grid_frames = st.integers(0, 4).flatmap(
    lambda size: st.lists(st.tuples(st.integers(0, size), st.integers(0, size)),
                          min_size=14, max_size=14))
grid_stacks = st.lists(grid_frames, min_size=1, max_size=4)


def degeneracy_oracle(pose):
    """(DegenerateLine, line name) for a pose's first line shorter than EPS,
    else (DegeneratePose, None) when its centroid or pairwise distances all
    stay under EPS, else None."""
    for family in LINE_FAMILIES:
        for name, length in line_lengths_oracle(pose, family):
            if length < EPS:
                return DegenerateLine, name
    if min(distance_maxima_oracle(pose)) < EPS:
        return DegeneratePose, None
    return None


@settings(max_examples=200, deadline=None)
@given(frames=grid_stacks)
def test_kernel_raises_and_drops_what_the_oracle_predicts(frames):
    xy = np.array(frames, dtype=float)
    frame_index = [3 * t + 5 for t in range(len(frames))]
    seq = sequence_from_coords(xy, frame_index=frame_index)
    verdicts = [degeneracy_oracle(pose) for pose in frames]
    first = next(((t, v) for t, v in enumerate(verdicts) if v is not None), None)
    for norm_scope in ("frame", "video"):
        if first is None:
            feats, failed = extract_sequence(seq, norm_scope, skip_degenerate=False)
            assert feats.shape == (len(frames), 113) and failed == 0
        else:
            t, (error, what) = first
            with pytest.raises(error) as exc:
                extract_sequence(seq, norm_scope, skip_degenerate=False)
            assert type(exc.value) is error
            assert exc.value.frame_index == frame_index[t]
            if what is not None:
                assert exc.value.what == what
        feats, failed = extract_sequence(seq, norm_scope)
        expected = sum(v is not None for v in verdicts)
        assert failed == expected and feats.shape == (len(frames) - expected, 113)


def test_grid_stacks_hold_both_kinds_of_degeneracy():
    """The stacks above include short lines, collapsed poses, and stacks with
    no degenerate frame at all."""
    seen = set()

    @seed(0)
    @settings(max_examples=200, database=None, deadline=None)
    @given(frames=grid_stacks)
    def record(frames):
        verdicts = [degeneracy_oracle(pose) for pose in frames]
        if any(min(distance_maxima_oracle(pose)) < EPS for pose in frames):
            seen.add("collapsed pose")
        elif any(v is not None for v in verdicts):
            seen.add("short line")
        else:
            seen.add("none")

    record()
    assert seen == {"collapsed pose", "short line", "none"}
