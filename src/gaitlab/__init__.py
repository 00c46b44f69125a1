"""gaitlab: pose-keypoint gait features and gait-abnormality classifiers."""

from .pose import GaitLabel, KeypointId, PoseSequence
from .ingest import (
    IngestReport,
    filter_valid,
    load_keypoint_file,
    parse_keypoint_file,
    save_keypoint_file,
    serialize_sequence,
)
from .frame_features import FEATURE_NAMES, extract_sequence
from .video_features import (
    FeatureTable,
    VideoFeatures,
    aggregate,
    featurize_sequence,
    read_features_csv,
    schema_fingerprint,
    write_features_csv,
)
from .synth import GaitParams, default_params, generate, generate_corpus, write_corpus
from .classify import (
    ALGORITHMS,
    TrainedModel,
    load_model,
    predict,
    save_model,
    scores,
    train,
)
from .evaluate import (
    EvalReport,
    best_report,
    cross_validate,
    run_task,
    stratified_split,
    task_rows,
)

__version__ = "0.1.0"
