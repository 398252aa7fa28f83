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

Every anchor tensor is written by one loop over row blocks (a 1D tensor is
one column). A merged one is planned first by its method's pass 1, which
:func:`_merge_one` calls directly: :func:`_plan_dim3` streams the column
reductions its weights need (a 1D tensor's element weights rank all its
rows, read as one block); in
:func:`~dimerge.baselines.merge_baseline_values` TIES and Breadcrumbs
stream both residuals' |delta| into two tensor-sized score arrays and cut a
global top-k there, and task arithmetic and DARE need no pass 1. It returns
a compose that reads and merges any block of rows. Pass 2 composes each
block of the anchor, rejects it if the output dtype cannot hold every value
finitely, and encodes and writes it in place in the output file; a tensor
passed through has an empty aligned region, so each of its blocks is
copied. Each worker reads every block of its inputs
(:func:`~dimerge.store.read_rows`) into its :class:`BlockBuffers`, arrays
named for what they hold and kept for the whole merge, so memory follows
one row block (and the two score arrays of a top-k cut).
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

from .align import HIGH_RANK_POLICIES, ROLES, SHAPE_POLICIES, AlignedTriple, AlignmentReport, align_triple
from .baselines import BaselineParams, merge_baseline_values
from .errors import ConfigError, Record
from .geometry import EPSILON_DEFAULT, SCRATCH_ROWS, TILE_ROWS, accumulate_column_sums, deviations_from_sums
from .records import ENCODE_LIMIT, DType, TensorRecord, encode_bits, recode_bits, require_finite
from .salience import (
    AggregationKind,
    EstimatorKind,
    SalienceWeights,
    aggregate_branches,
    elementwise_salience,
    estimate_salience,
)
from .scope import ScopeFilter
from .store import DEFAULT_SHARD_LIMIT, Checkpoint, CheckpointWriter, header_metadata, read_rows, require_unchanged

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
class MergeConfig(Record):
    """Full declarative description of a merge run, checked when it is made;
    a baseline method given no parameters gets the defaults."""

    section = "merge"

    method: str = field(default="dim3", metadata={"choices": MERGE_METHODS})
    estimator: EstimatorKind = field(default=EstimatorKind.RANK, metadata={"choices": tuple(EstimatorKind)})
    aggregation: AggregationKind = field(default_factory=AggregationKind, metadata={"kind": AggregationKind})
    epsilon: float = EPSILON_DEFAULT
    scope: ScopeFilter = field(default_factory=partial(ScopeFilter, preset="full"), metadata={"kind": ScopeFilter})
    shape_policy: str = field(default="strict", metadata={"choices": SHAPE_POLICIES})
    seed: int = 0
    baseline: BaselineParams | None = field(default=None, metadata={"kind": BaselineParams})
    output_dtype: str = field(default="match_anchor", metadata={"choices": OUTPUT_DTYPES})
    high_rank: str = field(default="reject", metadata={"choices": HIGH_RANK_POLICIES})

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "estimator", EstimatorKind(self.estimator))
        if not 0 < self.epsilon < np.inf:
            raise ConfigError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.method == "dim3" and self.baseline is not None:
            raise ConfigError("baseline parameters are only valid for baseline methods")
        if self.method in BASELINE_METHODS and self.baseline is None:
            object.__setattr__(self, "baseline", BaselineParams())


@dataclass(frozen=True)
class TensorMergeReport(Record):
    """One anchor tensor's report entry; a field that does not apply is None:
    a pass-through has no method or omega, a merged tensor no reason and a
    baseline no omega. ``seconds`` times its whole write, a copy included."""

    name: str
    action: str = field(metadata={"choices": ("merged", "pass_through")})
    method: str | None = None
    reason: str | None = None   # pass-through classification
    omega_ml_mean: float | None = None
    omega_ml_min: float | None = None
    omega_ml_max: float | None = None
    seconds: float = 0.0


@dataclass(frozen=True)
class MergeSummary(Record):
    """The report's totals, counted from its entries."""

    merged_count: int
    pass_through_count: int
    mean_omega_ml: float | None
    seconds: float


@dataclass
class MergeReport(Record):
    """What a merge did: its totals, the config it ran (the run's whole
    :class:`~dimerge.cli.RunConfig` once the CLI sets it), the alignment and
    one entry per anchor tensor, in anchor order."""

    summary: MergeSummary
    config: Record
    alignment: AlignmentReport
    tensors: list[TensorMergeReport]


def _block_rows(cols: int) -> int:
    """Rows per streamed block: whole tiles, about ``_BLOCK_ELEMENTS`` values."""
    return TILE_ROWS * max(1, _BLOCK_ELEMENTS // (TILE_ROWS * cols))


class BlockBuffers(threading.local):
    """A worker's named arrays for streamed row blocks, one set per thread.

    A buffer keeps its memory for as long as the object lives and grows only
    when a block needs more, so once the largest block has been seen,
    decoding, composing and encoding allocate nothing: no fresh pages to
    fault in for every block. Whatever takes a buffer overwrites all of it.
    :meth:`read` reads each role's rows, as stored, into the buffer
    ``stored`` and decodes them into the one named for the role
    (``ROLES``); every other name is its user's, for what it holds.
    """

    def __init__(self):
        self._arrays: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized array of ``shape`` and ``dtype`` in buffer ``name``."""
        dtype = np.dtype(dtype)
        nbytes = prod(shape) * dtype.itemsize
        raw = self._arrays.get(name)
        if raw is None or raw.nbytes < nbytes:
            raw = self._arrays[name] = np.empty(nbytes, np.uint8)
        return raw[:nbytes].view(dtype).reshape(shape)

    def blocks(self, rows: int, cols: int) -> list[tuple[int, int]]:
        """``(r0, r1)`` of each row block of a ``rows`` by ``cols`` matrix,
        in order: whole tiles, about ``_BLOCK_ELEMENTS`` values each."""
        block = _block_rows(cols)
        return [(r0, min(r0 + block, rows)) for r0 in range(0, rows, block)]

    def read(self, triple: AlignedTriple, r0: int, r1: int, roles: Iterable[str] = ROLES) -> list[np.ndarray]:
        """Rows ``r0:r1`` of each of ``roles``' aligned region, decoded to a
        float32 matrix in the buffer named for the role."""
        return [triple.decode_rows(role, r0, r1, self.take) for role in roles]


def stream_column_sums(triple: AlignedTriple, accumulate: Callable[..., None], count: int,
                       buffers: BlockBuffers) -> np.ndarray:
    """The ``count`` column sums that ``accumulate(sums, base, ml, mm, scratch)``
    adds for each row block of the aligned :attr:`~AlignedTriple.matrix`,
    read by ``buffers``, widened in its ``"scratch"``."""
    cols = triple.matrix[1]
    sums = np.zeros((count, cols))
    scratch = buffers.take("scratch", (SCRATCH_ROWS, cols), np.float64)
    for r0, r1 in buffers.blocks(*triple.matrix):
        accumulate(sums, *buffers.read(triple, r0, r1), scratch)
    # a squared finite float32 cannot overflow a float64 sum, so a squared
    # norm is non-finite exactly when its tensor holds a non-finite value
    for role, norms in zip(ROLES, sums[:3]):
        require_finite(norms, f"{triple.name}: {role} tensor contains non-finite values")
    return sums


def _plan_dim3(triple: AlignedTriple, cfg: MergeConfig, buffers: BlockBuffers) -> tuple[Compose, SalienceWeights]:
    """Pass 1 of a dim3 merge: the weights, and the compose that blends the
    two sources by them. A 2D tensor streams its column sums
    (:func:`stream_column_sums`) for one weight per column; a 1D tensor,
    read as one block of all its rows, gets one weight per element, which
    its one-column matrix views per row. The compose reads a block of both
    sources and blends in place in ml's buffer. A difference ``ml - mm``
    past float32 blends to a non-finite value, which pass 2 rejects."""
    if triple.rank == 1:
        base, ml, mm = (values.ravel() for values in buffers.read(triple, 0, triple.matrix[0]))
        for role, values in zip(ROLES, (base, ml, mm)):
            require_finite(values, f"{triple.name}: {role} tensor contains non-finite values")
        weights = elementwise_salience(*(np.abs(x.astype(np.float64) - base) for x in (ml, mm)), cfg.estimator)
        w_ml = weights.omega_ml.astype(np.float32).reshape(-1, 1)
    else:
        dev = deviations_from_sums(stream_column_sums(triple, accumulate_column_sums, 5, buffers), cfg.epsilon)
        s_mag_ml, _ = estimate_salience(dev.mag_ml, dev.mag_mm, cfg.estimator)
        s_dir_ml, _ = estimate_salience(dev.dir_ml, dev.dir_mm, cfg.estimator)
        weights = aggregate_branches(s_mag_ml, s_dir_ml, cfg.aggregation)
        w_ml = weights.omega_ml.astype(np.float32)
    logger.debug("%s: pass 1 done: %s weights", triple.name, "element" if triple.rank == 1 else "column")

    def compose(r0: int, r1: int) -> np.ndarray:
        # mm + w_ml * (ml - mm), computed in place
        merged, mm = buffers.read(triple, r0, r1, ("multilingual", "anchor"))
        merged -= mm
        merged *= w_ml[r0:r1] if triple.rank == 1 else w_ml
        merged += mm
        return merged

    return compose, weights


def _write_merged(name: str, anchor: TensorRecord, region: tuple[int, int], compose: Compose | None,
                  out_dtype: DType, sink: Sink, buffers: BlockBuffers) -> None:
    """Pass 2 of every anchor tensor, one row block of the anchor at a time:
    compose the rows of the aligned ``region`` (rows, columns), encode them
    in ``out_dtype`` over the anchor's own rows and columns, re-encoded, and
    hand the block to ``sink`` at its byte offset. A tensor passed through
    has no rows in its region and no compose, so each block is re-encoded:
    copied, in its own dtype. The anchor rows it re-encodes are read
    (:func:`~dimerge.store.read_rows`) into the ``stored`` buffer of
    ``buffers``, as the compose reads its rows. Every compose returns its
    block in the multilingual row buffer, so once it has returned the
    output bits take the anchor's row buffer and BF16's rounding sums the
    base's: no buffer is added for pass 2. This is the one check on merged
    values, for every method: a composed block whose min or max is NaN or
    past what encodes finitely in ``out_dtype`` (``ENCODE_LIMIT``) is a
    numeric error. Where ``out_dtype`` is narrower than the anchor's (F64
    to F32, the one narrowing :func:`_out_dtype` allows), the re-encoded
    anchor rows and columns get the same check."""
    rows, cols = region
    width = prod(anchor.shape[1:])   # a scalar is one row of one
    limit, problem = ENCODE_LIMIT[out_dtype], f"values are not finite in {out_dtype.value}"
    narrows = out_dtype.itemsize < anchor.dtype.itemsize
    for r0, r1 in buffers.blocks((anchor.shape + (1,))[0], cols):
        with np.errstate(over="ignore", invalid="ignore"):   # checked next
            merged = compose(r0, min(r1, rows)) if r0 < rows else None
        out = buffers.take("anchor", (r1 - r0, width), f"<u{out_dtype.itemsize}")
        if merged is not None:
            require_finite(merged, f"{name}: merged {problem}", limit)
        if merged is None or merged.shape != out.shape:
            bits = read_rows(anchor, r0, r1, buffers.take("stored", out.shape, f"<u{anchor.dtype.itemsize}"))
            recode_bits(bits, anchor.dtype, out_dtype, out)
            if narrows:
                require_finite(out.view(np.float32), f"{name}: anchor {problem}", limit)
        if merged is not None:
            scratch = buffers.take("base", merged.shape, np.uint32) if out_dtype is DType.BF16 else None
            encode_bits(merged, out_dtype, out[:len(merged), :cols], scratch)
        sink(r0 * out.shape[1] * out_dtype.itemsize, out)


def _out_dtype(anchor: TensorRecord, cfg: MergeConfig) -> DType:
    return anchor.dtype if cfg.output_dtype == "match_anchor" else DType.F32


def _merge_one(triple: AlignedTriple, cfg: MergeConfig, out_dtype: DType, sink: Sink,
               buffers: BlockBuffers) -> TensorMergeReport:
    """Merge one 1D or 2D tensor and write it in ``out_dtype``, at the
    anchor's shape, through ``sink``, in ``buffers``: pass 1 is
    :func:`_plan_dim3` or a baseline's :func:`merge_baseline_values` (no
    weights to report), pass 2 :func:`_write_merged`."""
    start = time.perf_counter()
    if cfg.method == "dim3":
        compose, weights = _plan_dim3(triple, cfg, buffers)
    else:
        compose, weights = merge_baseline_values(cfg.method, triple, cfg.baseline, cfg.seed, buffers), None
        logger.debug("%s: pass 1 done: %s", triple.name, cfg.method)
    _write_merged(triple.name, triple.mm, triple.matrix, compose, out_dtype, sink, buffers)
    omega = {} if weights is None else {f"omega_ml_{stat}": float(getattr(weights.omega_ml, stat)())
                                        for stat in ("mean", "min", "max")}
    return TensorMergeReport(name=triple.name, action="merged", method=cfg.method, **omega,
                             seconds=time.perf_counter() - start)


def _log_merged(entry: TensorMergeReport, n: int, total: int, nbytes: int) -> None:
    megabytes = nbytes / 1e6
    omega = "" if entry.omega_ml_mean is None else f", omega_ml mean {entry.omega_ml_mean:.4f}"
    logger.info("merged %d/%d %s: %.1f MB in %.3f s (%.0f MB/s)%s", n, total, entry.name,
                megabytes, entry.seconds, megabytes / max(entry.seconds, 1e-9), omega)


def for_each_tensor(tensors: Iterable, work: Callable, threads: int | None = None) -> list:
    """``[work(t) for t in tensors]`` on ``threads`` workers (inline for 1 or
    None, so a tensor's calls nest in the caller's thread). The first failure
    or an interrupt (Ctrl-C, ``SystemExit``) cancels the work not yet started;
    once the running work ends, the interrupt or the first error in tensor
    order is raised."""
    if threads is None or threads <= 1:
        return [work(t) for t in tensors]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(work, t) for t in tensors]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
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

    _merge_one(triple, cfg, out_dtype, sink, BlockBuffers())
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
    ``path``, laid out as :func:`~dimerge.store.save_checkpoint` would,
    with the anchor's ``__metadata__`` in every file
    (:func:`~dimerge.store.header_metadata`); everything else passes
    through bit-exactly. Each anchor tensor's fate is decided once, by one
    map, in anchor order, of the triples the merge composes: aligned,
    admitted by ``cfg.scope`` and of rank 1 or 2. Its output dtype, its
    branch and the log's total follow from the map (the summary's counts
    from the entries); a tensor outside it passes through in its own dtype,
    for alignment's reason, else ``scalar`` where the scope admits it, else
    ``out_of_scope``. The output file is sized first and each tensor filled
    in place, so its bytes are identical for any worker count. The tensors
    run through :func:`for_each_tensor` on ``threads`` workers, so the first
    failure stops the merge. Every anchor tensor, merged or passed through,
    is written by :func:`_write_merged`, one row block at a time. An input
    file changed during the run is a :class:`~dimerge.errors.FormatError`,
    raised before the writer commits: by the first read past the end of a
    truncated file, else by :func:`~dimerge.store.require_unchanged`.

    Each worker keeps its row-block buffers, a few MiB, until the merge
    returns; with ``DIMERGE_LOG=INFO`` it logs one line per merged tensor."""
    triples, alignment = align_triple(
        base, ml, anchor, shape_policy=cfg.shape_policy, high_rank=cfg.high_rank
    )
    logger.debug("alignment done: %d aligned, %d passed through", len(triples), len(alignment.pass_through))

    start = time.perf_counter()
    merging = {t.name: t for t in triples if t.rank >= 1 and cfg.scope.admits(t.name)}
    merged_so_far = itertools.count(1)
    buffers = BlockBuffers()
    dtypes = {n: _out_dtype(rec, cfg) if n in merging else rec.dtype for n, rec in anchor.tensors.items()}
    specs = [(n, dtype, anchor[n].shape) for n, dtype in dtypes.items()]
    with CheckpointWriter(specs, path, shard_limit, header_metadata(anchor)) as out:

        def handle(name: str) -> TensorMergeReport:
            rec, sink = anchor[name], partial(out.write, name)
            if name not in merging:
                started = time.perf_counter()
                _write_merged(name, rec, (0, prod(rec.shape[1:])), None, dtypes[name], sink, buffers)
                reason = alignment.pass_through.get(name) or ("scalar" if cfg.scope.admits(name) else "out_of_scope")
                return TensorMergeReport(name=name, action="pass_through", reason=reason,
                                         seconds=time.perf_counter() - started)
            entry = _merge_one(merging[name], cfg, dtypes[name], sink, buffers)
            _log_merged(entry, next(merged_so_far), len(merging), rec.num_elements * dtypes[name].itemsize)
            return entry

        entries = for_each_tensor(anchor.names(), handle, threads)
        require_unchanged(base, ml, anchor)
    logger.debug("writer closed %s: %d files", path, len(out.paths))

    merged = sum(e.action == "merged" for e in entries)
    omega_means = [e.omega_ml_mean for e in entries if e.omega_ml_mean is not None]
    summary = MergeSummary(merged, len(entries) - merged, float(np.mean(omega_means)) if omega_means else None,
                           time.perf_counter() - start)
    return MergeReport(summary, cfg, alignment, entries)
