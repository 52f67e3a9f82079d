"""Vertical federated EM for linear regression with block-missing covariates.

A library for fitting a Gaussian linear model when the covariate columns are
split across clients that cannot share raw data and whole blocks are missing
per sample. Provides the round-based federated estimator, a centralized
closed-form oracle, sketch-based standard errors, synthetic data generation,
baselines, and a Monte Carlo harness.

`em_map(theta, pattern_moments(data))` is the EM map the standard errors
differentiate; it takes the per-pattern moments that `pattern_moments`
builds once, not the dataset. `pattern_gram(theta, moments)` is its E-step,
whose sums also give the inference statistics. `ThetaVectorizer` owns the
coordinates it is differentiated in: beta alone (the rest pinned) or the
full parameter, with covariance blocks as lower triangles and their
duplication matrices.
"""

from . import errors
from .baselines import BaselineKind, BaselineResult, OlsFit, ols, run_baseline
from .centralized import (
    closed_form_m_step,
    em_map,
    estep,
    observed_loglik,
    observed_loss,
    pattern_gram,
    pattern_moments,
    q_gradient_beta,
    q_value,
)
from .data import (
    BlockLayout,
    ClientView,
    MissingMask,
    ModelParameters,
    VerticalDataset,
    make_dataset,
)
from .datagen import GenConfig, GroundTruth, generate, smes_like_config
from .engine import (
    FitConfig,
    FitResult,
    IterationSnapshot,
    PredictionResult,
    fit,
    initialize,
    plug_in_learning_rate,
    predict,
)
from .inference import (
    InferenceConfig,
    InferenceReport,
    SketchConfig,
    SketchedStatistics,
    ThetaVectorizer,
    assemble_information,
    asymptotic_covariance,
    exact_statistics,
    run_inference,
    sem_jacobian,
    sketch_statistics,
)
from .montecarlo import MonteCarloSpec, MonteCarloSummary, monte_carlo

__version__ = "0.1.0"

__all__ = [
    "BaselineKind", "BaselineResult", "BlockLayout", "ClientView",
    "FitConfig", "FitResult", "GenConfig", "GroundTruth",
    "InferenceConfig", "InferenceReport", "IterationSnapshot", "MissingMask",
    "ModelParameters", "MonteCarloSpec", "MonteCarloSummary", "OlsFit",
    "PredictionResult", "SketchConfig", "SketchedStatistics", "ThetaVectorizer",
    "VerticalDataset", "assemble_information", "asymptotic_covariance",
    "closed_form_m_step", "em_map", "errors", "estep",
    "exact_statistics", "fit", "generate", "initialize", "make_dataset",
    "monte_carlo", "observed_loglik", "observed_loss", "ols", "pattern_gram",
    "pattern_moments", "plug_in_learning_rate", "predict", "q_gradient_beta",
    "q_value", "run_baseline", "run_inference", "sem_jacobian",
    "sketch_statistics", "smes_like_config",
]
