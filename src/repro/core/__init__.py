"""The paper's primary contribution: the PCA + k-NN application classifier.

Preprocessing (expert metric selection + normalization), from-scratch PCA
with variance-fraction component selection, a from-scratch vectorized
k-NN classifier, the end-to-end classification pipeline with majority
vote and class composition, the cost model of §4.4, plus two extensions
the paper names as future work: incremental PCA for online training, and
automated relevance/redundancy feature selection.
"""

from .config import ClassifierConfig
from .cost_model import UnitCostModel
from .feature_selection import (
    SelectionResult,
    correlation_ratio,
    pearson_redundancy_matrix,
    select_features,
)
from .incremental import IncrementalPCA
from .knn import DEFAULT_CHUNK_SIZE, KNeighborsClassifier, rowwise_sq_distances
from .labels import (
    ALL_CLASSES,
    TABLE3_ORDER,
    ClassComposition,
    SnapshotClass,
    application_category,
    majority_vote,
)
from .online import NodeClassificationState, OnlineClassifier
from .pca import PCA
from .pipeline import (
    ApplicationClassifier,
    BatchResult,
    ClassificationResult,
    StageTimings,
)
from .preprocessing import MetricSelector, Normalizer, Preprocessor
from .stages import (
    MigrationOpportunity,
    Stage,
    StageAnalysis,
    find_migration_opportunities,
    mode_filter,
    segment_stages,
)

__all__ = [
    "ClassifierConfig",
    "UnitCostModel",
    "SelectionResult",
    "correlation_ratio",
    "pearson_redundancy_matrix",
    "select_features",
    "IncrementalPCA",
    "DEFAULT_CHUNK_SIZE",
    "KNeighborsClassifier",
    "rowwise_sq_distances",
    "ALL_CLASSES",
    "TABLE3_ORDER",
    "ClassComposition",
    "SnapshotClass",
    "application_category",
    "majority_vote",
    "PCA",
    "NodeClassificationState",
    "OnlineClassifier",
    "MigrationOpportunity",
    "Stage",
    "StageAnalysis",
    "find_migration_opportunities",
    "mode_filter",
    "segment_stages",
    "ApplicationClassifier",
    "BatchResult",
    "ClassificationResult",
    "StageTimings",
    "MetricSelector",
    "Normalizer",
    "Preprocessor",
]
