"""Walk through the six feature families on a single hand-built pose.

The 113-dim per-frame vector is laid out as:

    ls1..ls4   limb straightness (left hand, right hand, left leg, right leg)
    hl1, hl2   hand-leg coordination angles (opposite-side pairs)
    us         upper-body straightness
    bs         body straightness
    cd1..cd14  normalized distances of each keypoint to the pose centroid
    md1..md91  normalized pairwise keypoint distances

A video is summarized by the per-dimension mean and standard deviation of
its frame vectors, giving a 226-dim vector.
"""

import numpy as np

from gaitlab import (
    FEATURE_NAMES,
    GaitLabel,
    aggregate,
    default_params,
    extract_frame_features,
    extract_sequence,
    generate,
    point_line_distance,
)


def main():
    # the building block: perpendicular distance from a point to a line
    d = point_line_distance(p=(2.0, 3.0), a=(0.0, 0.0), b=(4.0, 0.0))
    print(f"distance from (2,3) to the x-axis: {d}")
    d = point_line_distance(p=(5.0, 3.0), a=(2.0, 0.0), b=(2.0, 10.0))
    print(f"distance from (5,3) to the vertical line x=2: {d}")
    print()

    seq = generate(default_params(GaitLabel.PARKINSON, seed=0), "walkthrough")
    vec = extract_frame_features(seq.xy[0])  # the first frame's (14, 2) coordinates
    print(f"one frame -> {vec.shape[0]} features")
    for name, value in zip(FEATURE_NAMES[:8], vec[:8]):
        print(f"  {name:4s} = {value:8.4f}")
    print(f"  cd block: min={vec[8:22].min():.4f} max={vec[8:22].max():.4f} (max is 1 by construction)")
    print(f"  md block: min={vec[22:].min():.4f} max={vec[22:].max():.4f}")
    print()

    feats, _ = extract_sequence(seq)
    video = aggregate(feats, source_id=seq.source_id)
    print(f"video vector: {video.x.shape[0]} dims "
          f"({len(FEATURE_NAMES)} means + {len(FEATURE_NAMES)} stds) "
          f"from {len(feats)} frames")
    print(f"schema fingerprint: {video.schema_fingerprint}")
    print()
    print("Translating or rotating the pose leaves every feature unchanged;")
    print("scaling leaves angles and normalized distances unchanged.")
    xy = seq.xy[0]
    print(f"(pose spans {np.ptp(xy[:, 0]):.0f} x {np.ptp(xy[:, 1]):.0f} pixels)")


if __name__ == "__main__":
    main()
