"""Certified robustness of grid-image classifiers against Wasserstein-ball
perturbations, via randomized smoothing with Laplace noise applied to local
mass flows between adjacent pixels."""

from .attack import AttackConfig, AttackResult, flow_pgd_attack, project_l1_ball, robustness_curve
from .classifier import (
    ClassifierParams,
    TrainConfig,
    TrainResult,
    accuracy,
    init_params,
    input_gradient_batch,
    load_checkpoint,
    loss_and_gradients,
    save_checkpoint,
    train,
)
from .dataset_io import (
    DegenerateImageError,
    IdxFormatError,
    IdxLengthError,
    LabeledDataset,
    PairingError,
    load_idx,
    load_idx_images,
    load_idx_labels,
    make_dataset,
    normalize,
    synthetic_dataset,
)
from .flow_domain import (
    NormalizationError,
    RawGrid,
    ShapeMismatchError,
    apply_flow,
    flow_from_edge,
    l1_norm,
    solve_flow_1d,
)
from .smoothing import (
    ABSTAIN,
    Certificate,
    NoiseSpec,
    SmoothedPrediction,
    certify,
    clopper_pearson_lower,
    median_certified_radius,
    prediction_from_counts,
    radius_from_plower,
    smoothed_predict,
)
from .transport_oracle import (
    ChannelMassError,
    GroundMetric,
    ScaleError,
    run_oracle_checks,
    wasserstein_grid_l1,
    wasserstein_lp,
)

__version__ = "0.1.0"
