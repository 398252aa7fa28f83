"""Training-free checkpoint merging with direction- and magnitude-aware
column weights, classical merging baselines, scope control, and residual
diagnostics. Operates directly on serialized weight tensors; no ML runtime
required.
"""

from .align import AlignedTriple, AlignmentReport, align_triple
from .baselines import BaselineParams
from .diagnostics import HeatmapRow, ModuleKeySchema, diagnose, export_csv, export_json
from .errors import (
    AlignmentError,
    ConfigError,
    DimergeError,
    FormatError,
    NumericError,
    RemapCollisionError,
    ShapeError,
    ShardError,
)
from .geometry import ColumnDeviations
from .merge import MergeConfig, MergeReport, merge_checkpoint, merge_tensor
from .records import DType, TensorRecord
from .salience import (
    AggregationKind,
    SalienceWeights,
    aggregate_branches,
    elementwise_salience,
    estimate_salience,
    rank_normalize,
    salience_pair,
)
from .scope import ScopeFilter
from .store import Checkpoint, load_checkpoint, remap_keys, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "AggregationKind",
    "AlignedTriple",
    "AlignmentError",
    "AlignmentReport",
    "BaselineParams",
    "Checkpoint",
    "ColumnDeviations",
    "ConfigError",
    "DType",
    "DimergeError",
    "FormatError",
    "HeatmapRow",
    "MergeConfig",
    "MergeReport",
    "ModuleKeySchema",
    "NumericError",
    "RemapCollisionError",
    "SalienceWeights",
    "ScopeFilter",
    "ShapeError",
    "ShardError",
    "TensorRecord",
    "aggregate_branches",
    "align_triple",
    "diagnose",
    "elementwise_salience",
    "estimate_salience",
    "export_csv",
    "export_json",
    "load_checkpoint",
    "merge_checkpoint",
    "merge_tensor",
    "rank_normalize",
    "remap_keys",
    "salience_pair",
    "save_checkpoint",
]
