"""Minimum-size abductive explanations for linear classifiers with a reject option.

An abductive explanation pins a subset of an instance's feature values such
that the classifier's output is forced for every completion of the remaining
features within their bounded domains.  This package computes explanations
of provably minimum size: a log-linear greedy procedure for accepted
predictions and an exact 0-1 branch-and-bound solve for rejections, next to
a subset-minimal deletion baseline, brute-force verification oracles,
Chow-style threshold calibration, and file formats plus a CLI to tie a full
pipeline together.
"""

from .baseline import deletion_explanation
from .calibration import (
    RiskConfig,
    RiskReport,
    TrainConfig,
    calibrate_thresholds,
    candidate_grid,
    evaluate_risk,
    train_logistic,
)
from .classified import greedy_explanation
from .dataio import (
    Dataset,
    ExplanationRecord,
    ModelBundle,
    ModelFormatError,
    ScalingInfo,
    aggregate_records,
    load_dataset,
    load_model,
    read_explanation_report,
    save_model,
    write_explanation_report,
)
from .explain import explain_instance
from .model import (
    DEFAULT_EPSILON,
    CoverProblem,
    DomainError,
    Explanation,
    ExplanationKind,
    Instance,
    Label,
    LabelMismatchError,
    LinearModel,
    Prediction,
    RejectClassifier,
    cover_problem,
    is_valid_explanation,
    predict,
    score,
    unit_box,
    validate_instance,
)
from .oracle import (
    MAX_ORACLE_FEATURES,
    brute_force_minimum,
    random_case,
    sampled_sufficiency_check,
)
from .rejected import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TIME_LIMIT,
    IlpSolution,
    solve_rejection_ilp,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_EPSILON",
    "DEFAULT_NODE_LIMIT",
    "DEFAULT_TIME_LIMIT",
    "MAX_ORACLE_FEATURES",
    "CoverProblem",
    "Dataset",
    "DomainError",
    "Explanation",
    "ExplanationKind",
    "ExplanationRecord",
    "IlpSolution",
    "Instance",
    "Label",
    "LabelMismatchError",
    "LinearModel",
    "ModelBundle",
    "ModelFormatError",
    "Prediction",
    "RejectClassifier",
    "RiskConfig",
    "RiskReport",
    "ScalingInfo",
    "TrainConfig",
    "aggregate_records",
    "brute_force_minimum",
    "calibrate_thresholds",
    "candidate_grid",
    "cover_problem",
    "deletion_explanation",
    "evaluate_risk",
    "explain_instance",
    "greedy_explanation",
    "is_valid_explanation",
    "load_dataset",
    "load_model",
    "predict",
    "random_case",
    "read_explanation_report",
    "sampled_sufficiency_check",
    "save_model",
    "score",
    "solve_rejection_ilp",
    "train_logistic",
    "unit_box",
    "validate_instance",
    "write_explanation_report",
]
