"""Residual-heterogeneity report: per-layer, per-module-type aggregation of
residual norm, base-relative reorientation, and cross-residual alignment,
exported as plot-ready tables.

Each tensor streams once over row blocks, through the merge's own first
pass on its worker pool (:func:`~dimerge.merge.for_each_tensor`), so memory
follows one row block per worker. Raw values are exported; color
normalization is left to the plotter. Keys without a parsable layer index
(embeddings, output head, final norm) group under layer -1.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from dataclasses import dataclass, field, fields

import numpy as np

from .align import ROLES, AlignedTriple, align_triple
from .errors import ConfigError, Record
from .geometry import EPSILON_DEFAULT, accumulate_residual_sums, cross_cosines, deviations_from_sums
from .merge import BlockBuffers, for_each_tensor, stream_column_sums
from .presets import DEFAULT_MODULE_LABELS, MODULE_SCHEMA_PRESETS
from .records import require_finite
from .scope import DEFAULT_LAYER_PATTERN, compile_layer_pattern, parse_layer_index
from .store import Checkpoint, require_unchanged, staged_files

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class ModuleKeySchema(Record):
    """Classifies backbone keys into (layer, module-type) groups.

    ``module_labels`` is an ordered list of (substring, label); the first
    matching substring wins and unlabeled keys group under "other". The
    layer pattern is checked and compiled once, when the schema is made. In
    a config (``diagnose.schema``) a preset (``MODULE_SCHEMA_PRESETS``)
    sets the fields, and each key given beside it replaces the preset's
    own; the preset does not take part in comparisons.
    """

    section = "diagnose.schema"
    presets = MODULE_SCHEMA_PRESETS

    preset: str = field(default="custom", kw_only=True, compare=False, metadata={"choices": MODULE_SCHEMA_PRESETS})
    layer_pattern: str = DEFAULT_LAYER_PATTERN
    module_labels: tuple[tuple[str, str], ...] = field(default=DEFAULT_MODULE_LABELS, metadata={"kind": "pairs"})
    layer_regex: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "layer_regex",
                           compile_layer_pattern(self.layer_pattern, "diagnose.schema.layer_pattern"))

    def layer_of(self, key: str) -> int | None:
        return parse_layer_index(key, self.layer_regex)

    def label_of(self, key: str) -> str:
        for substring, label in self.module_labels:
            if substring in key:
                return label
        return "other"

    def label_order(self, label: str) -> int:
        for i, (_, lab) in enumerate(self.module_labels):
            if lab == label:
                return i
        return len(self.module_labels)


@dataclass(frozen=True)
class DiagnoseConfig(Record):
    """The ``diagnose`` config section: the module schema, the tables to
    write (a path left out writes no table) and the cosine guard's epsilon,
    which must be positive."""

    section = "diagnose"

    schema: ModuleKeySchema = field(default_factory=ModuleKeySchema, metadata={"kind": ModuleKeySchema})
    csv_path: str | None = field(default=None, metadata={"kind": "string"})
    json_path: str | None = field(default=None, metadata={"kind": "string"})
    epsilon: float = EPSILON_DEFAULT

    def __post_init__(self):
        super().__post_init__()
        if self.epsilon <= 0:
            raise ConfigError(f"diagnose.epsilon must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class HeatmapRow(Record):
    """One (layer, module) cell of the heterogeneity report.

    Group residual norms are the Frobenius norms of the concatenated group
    residual (root of the summed per-tensor squared norms), so squared row
    norms sum to the squared norm of the full backbone residual. Direction
    and alignment columns are means over all columns of the group's 2D
    tensors and are absent (NaN/null) for groups holding only 1D tensors.
    """

    layer: int
    module: str
    norm_ml: float
    norm_mm: float
    dirdev_ml: float | None
    dirdev_mm: float | None
    cross_cos: float | None


CSV_HEADER = tuple(f.name for f in fields(HeatmapRow))


def diagnose(
    base: Checkpoint,
    ml: Checkpoint,
    anchor: Checkpoint,
    schema: ModuleKeySchema | None = None,
    epsilon: float = EPSILON_DEFAULT,
    threads: int | None = None,
) -> list[HeatmapRow]:
    """Group residual diagnostics by (layer, module type). Tensors are
    measured on ``threads`` workers and added into their groups in order, so
    the rows do not depend on the worker count.

    Inputs must already be key-remapped. Alignment is read-only and under
    ``anchor-overlap``: a tensor whose shapes differ (an anchor with extra
    vocabulary rows) is measured on the leading block all three share, with
    a warning, since the rest has no residual; a rank mismatch is an error.
    A residual that overflows float32 is a numeric error naming the tensor,
    and an input file changed while the tensors were measured is a format
    error naming the file (:func:`~dimerge.store.require_unchanged`).
    """
    schema = schema or ModuleKeySchema()
    triples, alignment = align_triple(base, ml, anchor, shape_policy="anchor-overlap", high_rank="pass_through")
    for m in alignment.shape_mismatches:
        logger.warning("%s: shapes %s / %s / %s differ; measured on their shared block %s",
                       m.name, m.base_shape, m.ml_shape, m.anchor_shape, m.overlap_shape)

    if triples and not any(schema.layer_of(t.name) is not None for t in triples):
        logger.warning("layer pattern %r captured no layer index; grouping all keys under layer -1",
                       schema.layer_pattern)

    buffers = BlockBuffers()

    def measure(triple: AlignedTriple) -> np.ndarray:
        """The tensor's squared residual norms, column count, and the sums
        over columns of both reorientations and the cross cosine."""
        with np.errstate(over="ignore", invalid="ignore"):   # residual norms checked below
            sums = stream_column_sums(triple, accumulate_residual_sums, 8, buffers)
        for role, norms in zip(ROLES[1:], sums[5:7]):
            require_finite(norms, f"{triple.name}: {role} residual contains non-finite values")
        terms = [sums[5].sum(), sums[6].sum(), 0.0, 0.0, 0.0, 0.0]
        if triple.rank == 2:
            dev = deviations_from_sums(sums[:5], epsilon)
            terms[2:] = sums.shape[1], dev.dir_ml.sum(), dev.dir_mm.sum(), cross_cosines(sums, epsilon).sum()
        return np.array(terms)

    groups: dict[tuple[int, str], np.ndarray] = {}
    for triple, terms in zip(triples, for_each_tensor(triples, measure, threads)):
        layer = schema.layer_of(triple.name)
        key = (-1 if layer is None else layer, schema.label_of(triple.name))
        groups[key] = groups.get(key, 0.0) + terms
    require_unchanged(base, ml, anchor)

    rows = []
    for (layer, module), (sq_ml, sq_mm, cols, dir_ml, dir_mm, cross) in groups.items():
        dd_ml, dd_mm, cross = (float(v / cols) for v in (dir_ml, dir_mm, cross)) if cols else (None,) * 3
        rows.append(HeatmapRow(layer, module, float(np.sqrt(sq_ml)), float(np.sqrt(sq_mm)), dd_ml, dd_mm, cross))
    rows.sort(key=lambda r: (r.layer, schema.label_order(r.module), r.module))
    return rows


def _cell(value):
    return "nan" if value is None else format(value, ".9g") if isinstance(value, float) else value


def export_csv(rows: list[HeatmapRow], path) -> None:
    """Write rows as CSV, a column per field (``CSV_HEADER``), floats to 9
    significant digits. The file is staged and renamed into place once complete."""
    if not rows:
        raise ConfigError("no rows to export")
    with staged_files() as stage, open(stage(path), "w", newline="") as fh:
        writer = csv.DictWriter(fh, CSV_HEADER)
        writer.writeheader()
        writer.writerows({key: _cell(value) for key, value in row.to_dict().items()} for row in rows)


def export_json(rows: list[HeatmapRow], path) -> None:
    """Write rows as a JSON array of objects with the CSV field names. The
    file is staged and renamed into place once complete."""
    if not rows:
        raise ConfigError("no rows to export")
    with staged_files() as stage, open(stage(path), "w") as fh:
        json.dump([row.to_dict() for row in rows], fh, indent=2)
        fh.write("\n")
