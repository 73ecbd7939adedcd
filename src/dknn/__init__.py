"""Dual-kNN retrieval-augmented text classification.

A small trainable classifier with label-distribution-learning losses, two
inference-time representation stores queried by exact kNN, and an experiment
harness for ablations, hyperparameter sweeps, and label-noise robustness.
"""

from .exceptions import (
    ArtifactMismatchError,
    CorruptArtifactError,
    DknnError,
    NonFiniteError,
    ValidationError,
)
from .features import Featurizer, FeaturizerConfig, fit_featurizer, fnv1a64, tokenize
from .harness import (
    Dataset,
    ExperimentConfig,
    ExperimentReport,
    SyntheticSpec,
    ablation_suite,
    generate_synthetic,
    inject_noise,
    load_dataset,
    run_experiment,
    save_dataset,
    split,
    sweep,
)
from .mathcore import is_distribution, sharpen
from .model import (
    LLConfig,
    LossBreakdown,
    ModelParams,
    classify,
    encode,
    load_checkpoint,
    model_fingerprint,
    save_checkpoint,
)
from .rng import Rng
from .stores import (
    InferenceConfig,
    Neighbor,
    PredictionBreakdown,
    RepresentationStore,
    StoreMetric,
    build_stores,
    combine_knn,
    interpolate,
    iter_predictions,
    load_store,
    neighbor_distribution,
    predict,
    query,
    save_store,
)
from .trainer import (
    AdamState,
    TrainConfig,
    adam_step,
    evaluate,
    init_params,
    save_history,
    train,
)

__version__ = "0.1.0"
