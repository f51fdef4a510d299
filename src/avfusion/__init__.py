"""Audio-visual fusion heads with arc-margin training and EER diagnostics."""

from .arcmargin import (
    ArcMarginHead,
    arc_margin_logits,
    softmax_cross_entropy,
)
from .data import DatasetConfig, IdentitySpec, Sample, SampleSet, generate_identities, \
    sample_dataset, split_dataset
from .evaluation import (
    DiagnosticsReport,
    EerResult,
    TrialConfig,
    boxplot_stats,
    build_trials,
    compute_eer,
    run_full_evaluation,
    silhouette_score,
)
from .heads import MeanFusionHead, MlpFusionHead, MultiViewHead
from .linalg import angle_deg, centroid, cosine_similarity, l2_normalize
from .training import AdamW, TrainingConfig, clip_global_norm, train_run

__version__ = "0.1.0"

__all__ = [
    "AdamW",
    "ArcMarginHead",
    "DatasetConfig",
    "DiagnosticsReport",
    "EerResult",
    "IdentitySpec",
    "MeanFusionHead",
    "MlpFusionHead",
    "MultiViewHead",
    "Sample",
    "SampleSet",
    "TrainingConfig",
    "TrialConfig",
    "angle_deg",
    "arc_margin_logits",
    "boxplot_stats",
    "build_trials",
    "centroid",
    "clip_global_norm",
    "compute_eer",
    "cosine_similarity",
    "generate_identities",
    "l2_normalize",
    "run_full_evaluation",
    "sample_dataset",
    "silhouette_score",
    "softmax_cross_entropy",
    "split_dataset",
    "train_run",
]
