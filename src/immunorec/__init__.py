"""Immune-network collaborative filtering for six-point movie ratings.

A target user (antigen) is matched against candidate users (antibodies)
whose concentrations evolve under stimulation, suppression, and death
dynamics; the surviving neighbourhood predicts ratings by concentration-
weighted averaging. Affinity between users is a pluggable rank-agreement
measure: Weighted Kappa, Kendall's Tau, or a Pearson baseline.
"""

from .affinity import (
    AffinityKind,
    AffinityMeasure,
    affinity,
    build_frequency_table,
    kendalls_tau,
    pearson_baseline,
    tie_ignored_fraction,
    weighted_kappa,
)
from .datastore import (
    FileFormat,
    IngestConfig,
    SyntheticConfig,
    generate_synthetic,
    load_ratings,
    partition,
    save_ratings,
)
from .domain import (
    Dataset,
    UserProfile,
    category_from_rating,
    rating_from_category,
)
from .evaluation import (
    ExperimentReport,
    accuracy_experiment,
    paired_comparison,
    ties_experiment,
    user_accuracy,
)
from .immune_network import (
    FinalPopulation,
    ImmuneParams,
    concentration_step,
    init_population,
    prune_and_replace,
    run_to_convergence,
)
from .recommender import predict_rating, recommend_top_n

__version__ = "0.1.0"

__all__ = [
    "AffinityKind",
    "AffinityMeasure",
    "Dataset",
    "ExperimentReport",
    "FileFormat",
    "FinalPopulation",
    "ImmuneParams",
    "IngestConfig",
    "SyntheticConfig",
    "UserProfile",
    "accuracy_experiment",
    "affinity",
    "build_frequency_table",
    "category_from_rating",
    "concentration_step",
    "generate_synthetic",
    "init_population",
    "kendalls_tau",
    "load_ratings",
    "paired_comparison",
    "partition",
    "pearson_baseline",
    "predict_rating",
    "prune_and_replace",
    "rating_from_category",
    "recommend_top_n",
    "run_to_convergence",
    "save_ratings",
    "tie_ignored_fraction",
    "ties_experiment",
    "user_accuracy",
    "weighted_kappa",
]
