"""Three-way alignment of base, multilingual, and anchor checkpoints.

Alignment walks the anchor's key set: every anchor tensor ends up either in
an :class:`AlignedTriple` (shared backbone parameter, mergeable) or in the
report's ``pass_through`` map with its reason: ``anchor_only`` (in neither
source: vision encoder, projector), ``missing_from_base``,
``missing_from_ml`` or ``high_rank``. Nothing is dropped silently; the merge
applies scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from .errors import AlignmentError, ConfigError, Record
from .records import TensorRecord, decode_f32, require_finite
from .store import Checkpoint, release_pages

SHAPE_POLICIES = ("strict", "anchor-overlap")
HIGH_RANK_POLICIES = ("reject", "pass_through")
ROLES = ("base", "multilingual", "anchor")


@dataclass(frozen=True)
class AlignedTriple:
    """Per-parameter alignment of (base, multilingual, anchor) tensors.

    The records are whole. ``shape`` is the aligned region: their common
    shape, or under the anchor-overlap policy the leading block they share.
    """

    name: str
    base: TensorRecord
    ml: TensorRecord
    mm: TensorRecord
    shape: tuple[int, ...] | None = None

    def __post_init__(self):
        shapes = (self.base.shape, self.ml.shape, self.mm.shape)
        if self.shape is None:
            if not shapes[0] == shapes[1] == shapes[2]:
                raise AlignmentError(
                    f"{self.name}: aligned shapes differ {shapes[0]} / {shapes[1]} / {shapes[2]}"
                )
            object.__setattr__(self, "shape", self.mm.shape)
        elif not all(len(s) == len(self.shape) and all(d >= o for d, o in zip(s, self.shape)) for s in shapes):
            raise AlignmentError(f"{self.name}: region {self.shape} is not inside {shapes}")

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        """Elements in the aligned region."""
        return int(np.prod(self.shape))

    @property
    def matrix(self) -> tuple[int, int]:
        """The aligned region as (rows, columns): a 1D tensor is one column,
        a scalar one row of one."""
        return (self.shape + (1,))[0], prod(self.shape[1:])

    def aligned_bits(self, rec: TensorRecord) -> np.ndarray:
        """The stored bits of ``rec`` inside the aligned region, as a view."""
        bits = rec.bits()
        return bits if rec.shape == self.shape else bits[tuple(slice(0, d) for d in self.shape)]

    def decode_rows(self, role: str, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows ``r0:r1`` of ``role``'s aligned region as a float32
        :attr:`matrix` block, into ``out`` or a fresh array. The record's
        pages that hold only those rows are then released, and the whole
        record once the block ends the region, so a streamed pass keeps one
        row block of each role mapped; a later read faults them back in."""
        rec = (self.base, self.ml, self.mm)[ROLES.index(role)]
        values = decode_f32(self.aligned_bits(rec).reshape(self.matrix)[r0:r1], rec.dtype, out)
        last = r1 >= self.matrix[0]   # then all of it: the pages shared with earlier blocks too
        release_pages(rec, 0 if last else r0, None if last else r1)
        return values

    def to_f32(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode the aligned region of (base, ml, mm) to float32; any
        non-finite input is an error."""
        arrays = tuple(decode_f32(self.aligned_bits(rec), rec.dtype) for rec in (self.base, self.ml, self.mm))
        for role, values in zip(ROLES, arrays):
            require_finite(values, f"{self.name}: {role} tensor contains non-finite values")
        return arrays


@dataclass
class ShapeMismatch(Record):
    name: str
    base_shape: tuple[int, ...]
    ml_shape: tuple[int, ...]
    anchor_shape: tuple[int, ...]
    overlap_shape: tuple[int, ...]


@dataclass
class AlignmentReport(Record):
    aligned: list[str] = field(default_factory=list)
    # anchor tensor name -> why it passes through unmerged
    pass_through: dict[str, str] = field(default_factory=dict)
    shape_mismatches: list[ShapeMismatch] = field(default_factory=list)
    extra_in_base: list[str] = field(default_factory=list)
    extra_in_ml: list[str] = field(default_factory=list)


def align_triple(
    base: Checkpoint,
    ml: Checkpoint,
    anchor: Checkpoint,
    shape_policy: str = "strict",
    high_rank: str = "reject",
) -> tuple[list[AlignedTriple], AlignmentReport]:
    """Align the shared backbone of three remapped checkpoints.

    Every shared key is aligned. Under the default strict shape policy any
    shape disagreement aborts; under ``anchor-overlap`` the common
    leading sub-block is aligned and the anchor's extra rows/columns pass
    through at assembly time.
    """
    if shape_policy not in SHAPE_POLICIES:
        raise ConfigError(f"unknown shape policy {shape_policy!r}")
    if high_rank not in HIGH_RANK_POLICIES:
        raise ConfigError(f"unknown high-rank policy {high_rank!r}")

    report = AlignmentReport()
    triples: list[AlignedTriple] = []

    for name, anchor_rec in anchor.tensors.items():
        in_base, in_ml = name in base, name in ml
        if not in_base or not in_ml:
            report.pass_through[name] = ("missing_from_base" if in_ml else
                                         "missing_from_ml" if in_base else "anchor_only")
            continue

        base_rec, ml_rec = base[name], ml[name]
        shapes = (base_rec.shape, ml_rec.shape, anchor_rec.shape)

        if anchor_rec.rank > 2 or base_rec.rank > 2 or ml_rec.rank > 2:
            if high_rank == "reject":
                raise AlignmentError(
                    f"{name}: rank-{anchor_rec.rank} tensor in the shared backbone; "
                    "enable high-rank pass-through to copy it from the anchor"
                )
            report.pass_through[name] = "high_rank"
            continue

        if shapes[0] == shapes[1] == shapes[2]:
            triples.append(AlignedTriple(name, base_rec, ml_rec, anchor_rec))
            report.aligned.append(name)
            continue

        if shape_policy == "strict":
            raise AlignmentError(
                f"{name}: shape mismatch under strict policy: "
                f"base {shapes[0]}, multilingual {shapes[1]}, anchor {shapes[2]}"
            )
        if len({len(s) for s in shapes}) != 1:
            raise AlignmentError(f"{name}: rank mismatch {shapes} cannot overlap")
        overlap = tuple(min(dims) for dims in zip(*shapes))
        triples.append(AlignedTriple(name, base_rec, ml_rec, anchor_rec, overlap))
        report.aligned.append(name)
        report.shape_mismatches.append(
            ShapeMismatch(name, *shapes, overlap_shape=overlap)
        )

    report.extra_in_base = [n for n in base.names() if n not in anchor.tensors]
    report.extra_in_ml = [n for n in ml.names() if n not in anchor.tensors]
    return triples, report
