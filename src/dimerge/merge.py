"""Column-wise direction- and magnitude-aware merging of two residuals.

For each in-scope 2D backbone tensor the engine forms the multilingual and
multimodal residuals against the shared base, measures how strongly and how
differently each source rewrites every column, turns those deviations into
per-column weights on the 2-simplex, and composes::

    merged[:, j] = base[:, j] + w_ml[j] * delta_ml[:, j] + w_mm[j] * delta_mm[:, j]

Since ``w_ml + w_mm = 1`` this is the convex combination
``mm + w_ml * (ml - mm)``, which is how it is computed: ``base`` enters only
through the weights. 1D parameters use absolute element deviations and
element-wise weights. All other anchor tensors (vision encoder, projector,
out-of-scope keys) are copied from the anchor verbatim.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .align import AlignedTriple, align_triple
from .baselines import BaselineParams, deltas_f32, merge_baseline_values
from .errors import ConfigError
from .geometry import EPSILON_DEFAULT, column_deviations
from .records import DType, TensorRecord
from .salience import (
    AggregationKind,
    EstimatorKind,
    SalienceWeights,
    aggregate_branches,
    elementwise_salience,
    estimate_salience,
)
from .scope import ScopeFilter
from .store import Checkpoint

BASELINE_METHODS = ("task_arithmetic", "dare", "ties", "breadcrumbs")
MERGE_METHODS = ("dim3",) + BASELINE_METHODS


@dataclass(frozen=True)
class MergeConfig:
    """Full declarative description of a merge run."""

    method: str = "dim3"
    estimator: EstimatorKind = EstimatorKind.RANK
    aggregation: AggregationKind = field(default_factory=AggregationKind.average)
    epsilon: float = EPSILON_DEFAULT
    scope: ScopeFilter = field(default_factory=ScopeFilter.full)
    shape_policy: str = "strict"
    seed: int = 0
    baseline: BaselineParams | None = None
    output_dtype: str = "match_anchor"   # or "f32"
    high_rank: str = "reject"            # or "pass_through"

    def validate(self) -> "MergeConfig":
        if self.method not in MERGE_METHODS:
            raise ConfigError(f"unknown merge method {self.method!r}")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        if self.output_dtype not in ("match_anchor", "f32"):
            raise ConfigError(f"unknown output dtype {self.output_dtype!r}")
        if self.method == "dim3" and self.baseline is not None:
            raise ConfigError("baseline parameters are only valid for baseline methods")
        if self.method in BASELINE_METHODS and self.baseline is None:
            object.__setattr__(self, "baseline", BaselineParams())
        return self

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "estimator": self.estimator.value,
            "aggregation": self.aggregation.to_dict(),
            "epsilon": self.epsilon,
            "scope": self.scope.to_dict(),
            "shape_policy": self.shape_policy,
            "seed": self.seed,
            "baseline": self.baseline.to_dict() if self.baseline else None,
            "output_dtype": self.output_dtype,
            "high_rank": self.high_rank,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MergeConfig":
        baseline = data.get("baseline")
        cfg = cls(
            method=data.get("method", "dim3"),
            estimator=EstimatorKind(data.get("estimator", "rank")),
            aggregation=AggregationKind.from_dict(data.get("aggregation", "average")),
            epsilon=float(data.get("epsilon", EPSILON_DEFAULT)),
            scope=ScopeFilter.from_dict(data.get("scope", {"preset": "full"})),
            shape_policy=data.get("shape_policy", "strict"),
            seed=int(data.get("seed", 0)),
            baseline=BaselineParams.from_dict(baseline) if baseline is not None else None,
            output_dtype=data.get("output_dtype", "match_anchor"),
            high_rank=data.get("high_rank", "reject"),
        )
        return cfg.validate()


@dataclass
class TensorMergeReport:
    name: str
    action: str                 # "merged" | "pass_through"
    method: str | None = None
    reason: str | None = None   # pass-through classification
    omega_ml_mean: float | None = None
    omega_ml_min: float | None = None
    omega_ml_max: float | None = None
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


@dataclass
class MergeReport:
    tensors: list[TensorMergeReport] = field(default_factory=list)
    merged_count: int = 0
    pass_through_count: int = 0
    mean_omega_ml: float | None = None
    seconds: float = 0.0
    config: dict = field(default_factory=dict)
    alignment: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "summary": {
                "merged_count": self.merged_count,
                "pass_through_count": self.pass_through_count,
                "mean_omega_ml": self.mean_omega_ml,
                "seconds": self.seconds,
            },
            "config": self.config,
            "alignment": self.alignment,
            "tensors": [t.to_dict() for t in self.tensors],
        }


def column_weights(
    base: np.ndarray, ml: np.ndarray, mm: np.ndarray, cfg: MergeConfig
) -> SalienceWeights:
    """Per-column source weights for a 2D tensor from both deviation branches."""
    dev = column_deviations(base, ml, mm, cfg.epsilon)
    s_mag_ml, _ = estimate_salience(dev.mag_ml, dev.mag_mm, cfg.estimator)
    s_dir_ml, _ = estimate_salience(dev.dir_ml, dev.dir_mm, cfg.estimator)
    return aggregate_branches(s_mag_ml, s_dir_ml, cfg.aggregation)


def _dim3(
    base: np.ndarray, ml: np.ndarray, mm: np.ndarray, cfg: MergeConfig
) -> tuple[np.ndarray, SalienceWeights]:
    if base.ndim == 2:
        weights = column_weights(base, ml, mm, cfg)
    else:
        dev_ml = np.abs(ml.astype(np.float64) - base)
        dev_mm = np.abs(mm.astype(np.float64) - base)
        weights = elementwise_salience(dev_ml, dev_mm, cfg.estimator)
    return mm + weights.omega_ml.astype(np.float32) * (ml - mm), weights


def _merge_values(triple: AlignedTriple, cfg: MergeConfig) -> tuple[np.ndarray, SalienceWeights | None]:
    if cfg.method == "dim3":
        return _dim3(*triple.to_f32(), cfg)
    base, d_ml, d_mm = deltas_f32(triple)
    return merge_baseline_values(cfg.method, base, d_ml, d_mm, cfg.baseline, cfg.seed, triple.name), None


def _embed_into_anchor(anchor: TensorRecord, merged: np.ndarray, out_dtype: DType) -> TensorRecord:
    """Write merged values into the anchor tensor (anchor-overlap shape policy);
    outside the merged sub-block it keeps the anchor's values in ``out_dtype``."""
    region = tuple(slice(0, d) for d in merged.shape)
    bits = anchor.astype(out_dtype).bits().copy()
    bits[region] = TensorRecord.from_array(anchor.name, merged, dtype=out_dtype).bits()
    return TensorRecord(name=anchor.name, dtype=out_dtype, shape=anchor.shape, raw=bits.tobytes())


def _merge_one(triple: AlignedTriple, anchor_rec: TensorRecord, cfg: MergeConfig) -> tuple[TensorRecord, TensorMergeReport]:
    start = time.perf_counter()
    values, weights = _merge_values(triple, cfg)
    out_dtype = triple.mm.dtype if cfg.output_dtype == "match_anchor" else DType.F32
    if triple.shape == anchor_rec.shape:
        record = TensorRecord.from_array(triple.name, values, dtype=out_dtype)
    else:
        record = _embed_into_anchor(anchor_rec, values, out_dtype)
    entry = TensorMergeReport(name=triple.name, action="merged", method=cfg.method)
    if weights is not None:
        entry.omega_ml_mean = float(weights.omega_ml.mean())
        entry.omega_ml_min = float(weights.omega_ml.min())
        entry.omega_ml_max = float(weights.omega_ml.max())
    entry.seconds = time.perf_counter() - start
    return record, entry


def merge_tensor(triple: AlignedTriple, cfg: MergeConfig) -> TensorRecord:
    """Merge one aligned tensor; output in the anchor's dtype unless the
    config asks for f32."""
    record, _ = _merge_one(triple, triple.mm, cfg.validate())
    return record


def merge_checkpoint(
    base: Checkpoint,
    ml: Checkpoint,
    anchor: Checkpoint,
    cfg: MergeConfig,
    threads: int | None = None,
) -> tuple[Checkpoint, MergeReport]:
    """Merge the shared backbone into the anchor; everything else passes
    through bit-exactly. Output is identical for any worker count."""
    cfg.validate()
    triples, alignment = align_triple(
        base, ml, anchor, shape_policy=cfg.shape_policy, high_rank=cfg.high_rank
    )
    by_name = {t.name: t for t in triples}

    start = time.perf_counter()
    passthrough_reason = {}
    for reason, names in (
        ("anchor_only", alignment.anchor_only),
        ("missing_from_source", alignment.missing_from_base + alignment.missing_from_ml),
        ("high_rank", alignment.high_rank),
    ):
        for n in names:
            passthrough_reason[n] = reason

    def handle(name: str) -> tuple[TensorRecord, TensorMergeReport]:
        anchor_rec = anchor[name]
        triple = by_name.get(name)
        if triple is None:
            return anchor_rec, TensorMergeReport(
                name=name, action="pass_through", reason=passthrough_reason[name]
            )
        if not cfg.scope.admits(name):
            return anchor_rec, TensorMergeReport(name=name, action="pass_through", reason="out_of_scope")
        if triple.rank == 0:
            return anchor_rec, TensorMergeReport(name=name, action="pass_through", reason="scalar")
        return _merge_one(triple, anchor_rec, cfg)

    names = anchor.names()
    if threads is not None and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(handle, names))
    else:
        results = [handle(n) for n in names]

    records = []
    report = MergeReport(config=cfg.to_dict(), alignment=alignment.to_dict())
    omega_means = []
    for record, entry in results:
        records.append(record)
        report.tensors.append(entry)
        if entry.action == "merged":
            report.merged_count += 1
            if entry.omega_ml_mean is not None:
                omega_means.append(entry.omega_ml_mean)
        else:
            report.pass_through_count += 1
    report.mean_omega_ml = float(np.mean(omega_means)) if omega_means else None
    report.seconds = time.perf_counter() - start

    return Checkpoint.from_records(records), report
