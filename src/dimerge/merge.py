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

Every merged tensor is written in two passes over row blocks. Pass 1 is the
method's: dim3 streams the column reductions its weights need (a 1D tensor
is weighed whole); the baselines decode the residuals once into
tensor-sized arrays, where TIES and Breadcrumbs cut a global top-k. It
returns a compose for any block of rows, and pass 2, one loop for every
method, composes each block of the anchor, rejects it if the output dtype
cannot hold every value finitely, and encodes and writes it in place in the
output file. Each worker does all this in the same few arrays for the
whole merge, so memory follows one row block (and the baselines' residuals).
"""

from __future__ import annotations

import itertools
import logging
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from math import prod
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .align import HIGH_RANK_POLICIES, ROLES, SHAPE_POLICIES, AlignedTriple, align_triple
from .baselines import BaselineParams, merge_baseline_values
from .errors import ConfigError, NumericError, read_section, read_value
from .geometry import (
    EPSILON_DEFAULT,
    SCRATCH_ROWS,
    TILE_ROWS,
    ColumnDeviations,
    accumulate_column_sums,
    deviations_from_sums,
)
from .records import ENCODE_LIMIT, DType, TensorRecord, decode_f32, encode_bits, recode_bits, require_finite
from .salience import (
    AggregationKind,
    EstimatorKind,
    SalienceWeights,
    aggregate_branches,
    elementwise_salience,
    estimate_salience,
)
from .scope import ScopeFilter
from .store import DEFAULT_SHARD_LIMIT, Checkpoint, CheckpointWriter, release_pages

logger = logging.getLogger(__name__)

BASELINE_METHODS = ("task_arithmetic", "dare", "ties", "breadcrumbs")
MERGE_METHODS = ("dim3",) + BASELINE_METHODS
OUTPUT_DTYPES = ("match_anchor", "f32")
# elements per streamed row block: about 1 MiB per float32 working array
_BLOCK_ELEMENTS = 1 << 18

# receives a tensor's output bits at a byte offset into its payload
Sink = Callable[[int, np.ndarray], None]
# rows r0:r1 of a tensor's merged aligned region in float32, as a matrix (a
# 1D tensor is one column); called for row blocks in order
Compose = Callable[[int, int], np.ndarray]


@dataclass(frozen=True)
class MergeConfig:
    """Full declarative description of a merge run, checked when it is made;
    a baseline method given no parameters gets the defaults."""

    method: str = "dim3"
    estimator: EstimatorKind = EstimatorKind.RANK
    aggregation: AggregationKind = field(default_factory=partial(AggregationKind, "average"))
    epsilon: float = EPSILON_DEFAULT
    scope: ScopeFilter = field(default_factory=partial(ScopeFilter, preset="full"))
    shape_policy: str = "strict"
    seed: int = 0
    baseline: BaselineParams | None = None
    output_dtype: str = "match_anchor"   # or "f32"
    high_rank: str = "reject"            # or "pass_through"

    def __post_init__(self):
        if self.method not in MERGE_METHODS:
            raise ConfigError(f"unknown merge method {self.method!r}")
        if not 0 < self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.output_dtype not in OUTPUT_DTYPES:
            raise ConfigError(f"unknown output dtype {self.output_dtype!r}")
        if self.method == "dim3" and self.baseline is not None:
            raise ConfigError("baseline parameters are only valid for baseline methods")
        if self.method in BASELINE_METHODS and self.baseline is None:
            object.__setattr__(self, "baseline", BaselineParams())

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
    def from_dict(cls, data) -> "MergeConfig":
        """Read the ``merge`` section; each key left out keeps its default."""
        fields = cls.__dataclass_fields__
        data = read_section(data, "merge", fields)

        def value(key, kind, choices=None):
            return read_value(data, "merge", key, kind, fields[key].default, choices)

        baseline = data.get("baseline")
        return cls(
            method=value("method", "string", MERGE_METHODS),
            estimator=EstimatorKind(value("estimator", "string", tuple(EstimatorKind))),
            aggregation=AggregationKind.from_dict(data.get("aggregation")),
            epsilon=value("epsilon", "number"),
            scope=ScopeFilter.from_dict(data.get("scope", "full")),
            shape_policy=value("shape_policy", "string", SHAPE_POLICIES),
            seed=value("seed", "integer"),
            baseline=None if baseline is None else BaselineParams.from_dict(baseline),
            output_dtype=value("output_dtype", "string", OUTPUT_DTYPES),
            high_rank=value("high_rank", "string", HIGH_RANK_POLICIES),
        )


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


def _weights(dev: ColumnDeviations, cfg: MergeConfig) -> SalienceWeights:
    s_mag_ml, _ = estimate_salience(dev.mag_ml, dev.mag_mm, cfg.estimator)
    s_dir_ml, _ = estimate_salience(dev.dir_ml, dev.dir_mm, cfg.estimator)
    return aggregate_branches(s_mag_ml, s_dir_ml, cfg.aggregation)


def _as_matrix(shape: tuple[int, ...]) -> tuple[int, int]:
    return shape[0], prod(shape[1:])


def _block_rows(cols: int) -> int:
    """Rows per streamed block: whole tiles, about ``_BLOCK_ELEMENTS`` values."""
    return TILE_ROWS * max(1, _BLOCK_ELEMENTS // (TILE_ROWS * cols))


class BlockBuffers(threading.local):
    """Scratch arrays for streamed row blocks, one set per thread.

    A slot keeps its memory for as long as the object lives and grows only
    when a block needs more, so once the largest block has been seen,
    decoding, composing and encoding allocate nothing: no fresh pages to
    fault in for every block. Whatever takes a slot overwrites all of it.
    Slots: dim3's pass 1 decodes into 0-2 and widens tiles in 3; the
    baselines' decode into 3-5, and cut in 6-7 (scores, flags) with TIES's
    sign and count in 8-9 or Breadcrumbs' bottom flags in 8; pass 2 composes
    in 0-1 and encodes in 2 (bf16 rounding sums in 0).
    """

    def __init__(self):
        self._slots: dict[int, np.ndarray] = {}

    def take(self, slot: int, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized array of ``shape`` and ``dtype`` in ``slot``."""
        dtype = np.dtype(dtype)
        nbytes = prod(shape) * dtype.itemsize
        raw = self._slots.get(slot)
        if raw is None or raw.nbytes < nbytes:
            raw = self._slots[slot] = np.empty(nbytes, np.uint8)
        return raw[:nbytes].view(dtype).reshape(shape)


def _release_rows(rec: TensorRecord, r0: int, r1: int) -> None:
    row_bytes = prod(rec.shape[1:]) * rec.dtype.itemsize
    release_pages(rec, r0 * row_bytes, r1 * row_bytes)


def stream_column_sums(triple: AlignedTriple, accumulate: Callable[..., None], count: int,
                       buffers: BlockBuffers) -> np.ndarray:
    """The ``count`` column sums that ``accumulate(sums, base, ml, mm, scratch)``
    adds for each row block of the aligned region, decoded into ``buffers``
    slots 0-2 and widened in slot 3. A 1D tensor is one column, a scalar one
    row of it. The base's pages are released block by block after their last read."""
    rows, cols = (triple.shape + (1, 1))[:2]
    block = _block_rows(cols)
    sources = [(triple.aligned_bits(rec).reshape(rows, cols), rec.dtype)
               for rec in (triple.base, triple.ml, triple.mm)]
    sums = np.zeros((count, cols))
    scratch = buffers.take(3, (SCRATCH_ROWS, cols), np.float64)
    for r0 in range(0, rows, block):
        r1 = min(r0 + block, rows)
        blocks = (decode_f32(bits[r0:r1], dtype, buffers.take(slot, (r1 - r0, cols), np.float32))
                  for slot, (bits, dtype) in enumerate(sources))
        accumulate(sums, *blocks, scratch)
        _release_rows(triple.base, r0, r1)
    # a squared finite float32 cannot overflow a float64 sum, so a squared
    # norm is non-finite exactly when its tensor holds a non-finite value
    for role, norms in zip(ROLES, sums[:3]):
        require_finite(norms, f"{triple.name}: {role} tensor contains non-finite values")
    return sums


def _plan_dim3(triple: AlignedTriple, cfg: MergeConfig, buffers: BlockBuffers) -> tuple[Compose, SalienceWeights]:
    """Pass 1 of a dim3 merge: the weights, and the compose that blends the
    two sources by them. A 2D tensor streams its column sums
    (:func:`stream_column_sums`, slots 0-3); its compose decodes a block of
    each source into slots 0 and 1 and blends in place in slot 1. A 1D
    tensor is merged whole by its element weights. A difference ``ml - mm``
    past float32 blends to a non-finite value, which pass 2 rejects."""
    if triple.rank == 1:
        base, ml, mm = triple.to_f32()
        dev_ml = np.abs(ml.astype(np.float64) - base)
        dev_mm = np.abs(mm.astype(np.float64) - base)
        weights = elementwise_salience(dev_ml, dev_mm, cfg.estimator)
        logger.debug("%s: pass 1 done: element weights", triple.name)
        w_ml = weights.omega_ml.astype(np.float32)
        return (lambda r0, r1: (mm[r0:r1] + w_ml[r0:r1] * (ml[r0:r1] - mm[r0:r1])).reshape(-1, 1)), weights
    sums = stream_column_sums(triple, accumulate_column_sums, 5, buffers)
    logger.debug("%s: pass 1 done: column sums", triple.name)
    weights = _weights(deviations_from_sums(sums, cfg.epsilon), cfg)
    w_ml = weights.omega_ml.astype(np.float32)
    ml, mm = triple.aligned_bits(triple.ml), triple.aligned_bits(triple.mm)

    def compose(r0: int, r1: int) -> np.ndarray:
        # mm + w_ml * (ml - mm), computed in place
        shape = (r1 - r0, triple.shape[1])
        mm_rows = decode_f32(mm[r0:r1], triple.mm.dtype, buffers.take(0, shape, np.float32))
        merged = decode_f32(ml[r0:r1], triple.ml.dtype, buffers.take(1, shape, np.float32))
        merged -= mm_rows
        merged *= w_ml
        merged += mm_rows
        return merged

    return compose, weights


def _decode_residuals(triple: AlignedTriple, buffers: BlockBuffers) -> list[np.ndarray]:
    """The aligned region of (base, ml - base, mm - base) in float32 rows, in
    ``buffers`` slots 3-5, decoded one row block at a time. Each block of
    the base and of each residual is checked for non-finite values, role by
    role in order, so a residual that overflows float32 is an error too; the
    base's and ml's pages are released block by block after their last read."""
    rows, cols = _as_matrix(triple.shape)
    block = _block_rows(cols)
    arrays: list[np.ndarray] = []
    for slot, (role, rec) in enumerate(zip(ROLES, (triple.base, triple.ml, triple.mm)), start=3):
        bits = triple.aligned_bits(rec).reshape(rows, cols)
        values = buffers.take(slot, (rows, cols), np.float32)
        message = f"{triple.name}: {role} {'residual' if arrays else 'tensor'} contains non-finite values"
        for r0 in range(0, rows, block):
            part = decode_f32(bits[r0:r0 + block], rec.dtype, values[r0:r0 + block])
            if arrays:
                with np.errstate(over="ignore", invalid="ignore"):   # checked next
                    part -= arrays[0][r0:r0 + block]
            require_finite(part, message)
            if rec is not triple.mm:
                _release_rows(rec, r0, r0 + block)
        arrays.append(values)
    return arrays


def _plan_baseline(triple: AlignedTriple, cfg: MergeConfig, buffers: BlockBuffers) -> tuple[Compose, None]:
    """Pass 1 of a baseline merge: the residuals decoded once
    (:func:`_decode_residuals`) and cut by
    :func:`~dimerge.baselines.merge_baseline_values` (slots 6-9), whose
    compose works in place in them."""
    residuals = _decode_residuals(triple, buffers)
    logger.debug("%s: pass 1 done: residuals decoded", triple.name)
    block = _block_rows(_as_matrix(triple.shape)[1])
    return merge_baseline_values(cfg.method, *residuals, cfg.baseline, cfg.seed, triple.name,
                                 buffers.take, block), None


def _write_merged(triple: AlignedTriple, compose: Compose, out_dtype: DType, sink: Sink,
                  buffers: BlockBuffers) -> None:
    """Pass 2 of every merge, one row block of the anchor at a time: compose
    the aligned rows, encode them in ``out_dtype`` over the anchor's own
    rows and columns, re-encoded, hand the block to ``sink`` at its byte
    offset and release the sources' pages. The output bits go in ``buffers``
    slot 2 and the bf16 rounding sums in slot 0, both of which a dim3 pass 1
    has already grown. This is the one check on merged values, for every
    method: a composed block whose min or max is NaN or past what encodes
    finitely in ``out_dtype`` (``ENCODE_LIMIT``) is a numeric error."""
    anchor = triple.mm
    rows, cols = _as_matrix(triple.shape)
    anchor_rows, anchor_cols = _as_matrix(anchor.shape)
    anchor_bits = anchor.bits().reshape(anchor_rows, anchor_cols)
    block = _block_rows(cols)
    limit = ENCODE_LIMIT[out_dtype]
    for r0 in range(0, anchor_rows, block):
        r1 = min(r0 + block, anchor_rows)
        out = buffers.take(2, (r1 - r0, anchor_cols), f"<u{out_dtype.itemsize}")
        with np.errstate(over="ignore", invalid="ignore"):   # checked next
            merged = compose(r0, min(r1, rows)) if r0 < rows else None
        if merged is not None and not (-limit <= merged.min() and merged.max() <= limit):
            raise NumericError(f"{triple.name}: merged values are not finite in {out_dtype.value}")
        if merged is None or merged.shape != out.shape:
            recode_bits(anchor_bits[r0:r1], anchor.dtype, out_dtype, out)
        if merged is not None:
            scratch = buffers.take(0, merged.shape, np.uint32) if out_dtype is DType.BF16 else None
            encode_bits(merged, out_dtype, out[:len(merged), :cols], scratch)
        sink(r0 * anchor_cols * out_dtype.itemsize, out)
        for rec in (triple.ml, anchor):
            _release_rows(rec, r0, r1)


def _out_dtype(anchor: TensorRecord, cfg: MergeConfig) -> DType:
    return anchor.dtype if cfg.output_dtype == "match_anchor" else DType.F32


def _merge_one(triple: AlignedTriple, cfg: MergeConfig, sink: Sink, buffers: BlockBuffers) -> TensorMergeReport:
    """Merge one 1D or 2D tensor and write it, at the anchor's shape, through
    ``sink``: the method's pass 1 plans it and :func:`_write_merged` writes
    it, both in ``buffers``."""
    start = time.perf_counter()
    plan = _plan_dim3 if cfg.method == "dim3" else _plan_baseline
    compose, weights = plan(triple, cfg, buffers)
    _write_merged(triple, compose, _out_dtype(triple.mm, cfg), sink, buffers)
    entry = TensorMergeReport(name=triple.name, action="merged", method=cfg.method)
    if weights is not None:
        entry.omega_ml_mean = float(weights.omega_ml.mean())
        entry.omega_ml_min = float(weights.omega_ml.min())
        entry.omega_ml_max = float(weights.omega_ml.max())
    entry.seconds = time.perf_counter() - start
    return entry


def _log_merged(entry: TensorMergeReport, n: int, total: int, nbytes: int) -> None:
    megabytes = nbytes / 1e6
    omega = "" if entry.omega_ml_mean is None else f", omega_ml mean {entry.omega_ml_mean:.4f}"
    logger.info("merged %d/%d %s: %.1f MB in %.3f s (%.0f MB/s)%s", n, total, entry.name,
                megabytes, entry.seconds, megabytes / max(entry.seconds, 1e-9), omega)


def for_each_tensor(tensors: Iterable, work: Callable, threads: int | None = None) -> list:
    """``[work(t) for t in tensors]`` on ``threads`` workers (inline for 1 or
    None). The first failure stops it: work not yet started is cancelled, and
    the error of the first tensor in order that failed is raised."""
    if threads is None or threads <= 1:
        return [work(t) for t in tensors]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, t) for t in tensors]
        wait(futures, return_when=FIRST_EXCEPTION)
        pool.shutdown(cancel_futures=True)
    # workers start tensors in order, so every cancelled one follows every failure
    return [future.result() for future in futures]


def merge_tensor(triple: AlignedTriple, cfg: MergeConfig) -> TensorRecord:
    """Merge one aligned tensor, at the anchor's shape; output in the anchor's
    dtype unless the config asks for f32. A scalar is the anchor's own
    record, as :func:`merge_checkpoint` passes it through."""
    if triple.rank == 0:
        return triple.mm
    out_dtype = _out_dtype(triple.mm, cfg)
    payload = bytearray(triple.mm.num_elements * out_dtype.itemsize)

    def sink(offset: int, bits: np.ndarray) -> None:
        payload[offset:offset + bits.nbytes] = bits.tobytes()

    _merge_one(triple, cfg, sink, BlockBuffers())
    return TensorRecord(name=triple.name, dtype=out_dtype, shape=triple.mm.shape, raw=bytes(payload))


def merge_checkpoint(
    base: Checkpoint,
    ml: Checkpoint,
    anchor: Checkpoint,
    cfg: MergeConfig,
    path: str | Path,
    threads: int | None = None,
    shard_limit: int = DEFAULT_SHARD_LIMIT,
) -> MergeReport:
    """Merge the shared backbone into the anchor and write the result to
    ``path``, laid out as :func:`~dimerge.store.save_checkpoint` would;
    everything else passes through bit-exactly. The output file is sized
    first and each tensor filled in place, so its bytes are identical for
    any worker count. The tensors run through :func:`for_each_tensor` on
    ``threads`` workers, so the first failure stops the merge. Each input
    tensor's mapped pages are released after its last use. Each worker keeps
    its row-block buffers, a few MiB, until the merge returns; with
    ``DIMERGE_LOG=INFO`` it logs one line per merged tensor."""
    triples, alignment = align_triple(
        base, ml, anchor, shape_policy=cfg.shape_policy, high_rank=cfg.high_rank
    )
    by_name = {t.name: t for t in triples}
    logger.debug("alignment done: %d aligned, %d passed through", len(triples), len(alignment.pass_through))

    start = time.perf_counter()
    passthrough_reason = dict(alignment.pass_through)
    for name, triple in by_name.items():
        if not cfg.scope.admits(name):
            passthrough_reason[name] = "out_of_scope"
        elif triple.rank == 0:
            passthrough_reason[name] = "scalar"

    names = anchor.names()
    to_merge = sum(n not in passthrough_reason for n in names)
    merged_so_far = itertools.count(1)
    buffers = BlockBuffers()
    specs = [(n, anchor[n].dtype if n in passthrough_reason else _out_dtype(anchor[n], cfg), anchor[n].shape)
             for n in names]
    with CheckpointWriter(specs, path, shard_limit) as out:

        def handle(name: str) -> TensorMergeReport:
            try:
                if name in passthrough_reason:
                    out.write(name, 0, anchor[name].raw)
                    return TensorMergeReport(name=name, action="pass_through", reason=passthrough_reason[name])
                entry = _merge_one(by_name[name], cfg, partial(out.write, name), buffers)
                nbytes = anchor[name].num_elements * _out_dtype(anchor[name], cfg).itemsize
                _log_merged(entry, next(merged_so_far), to_merge, nbytes)
                return entry
            finally:
                for ckpt in (base, ml, anchor):
                    if name in ckpt:
                        release_pages(ckpt[name])

        entries = for_each_tensor(names, handle, threads)
    logger.debug("writer closed %s: %d files", path, len(out.paths))

    merged = [e for e in entries if e.action == "merged"]
    omega_means = [e.omega_ml_mean for e in merged if e.omega_ml_mean is not None]
    return MergeReport(tensors=entries, merged_count=len(merged), pass_through_count=len(entries) - len(merged),
                       mean_omega_ml=float(np.mean(omega_means)) if omega_means else None,
                       seconds=time.perf_counter() - start, config=cfg.to_dict(), alignment=alignment.to_dict())
