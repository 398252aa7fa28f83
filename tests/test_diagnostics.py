import csv
import json
import time

import numpy as np
import pytest

from dimerge import diagnostics
from dimerge.diagnostics import (
    CSV_HEADER,
    HeatmapRow,
    ModuleKeySchema,
    diagnose,
    export_csv,
    export_json,
)
from dimerge.errors import AlignmentError, ConfigError, NumericError
from dimerge.records import TensorRecord
from dimerge.store import Checkpoint

from conftest import LAYERS, make_triple, one_tensor_row
import reference


def ckpt(arrays: dict) -> Checkpoint:
    records = [TensorRecord.from_array(n, np.asarray(a, dtype=np.float32)) for n, a in arrays.items()]
    return Checkpoint.from_records(records)


class TestDiagnose:
    def test_ml_equals_base_gives_zero_norms(self, triple_f32):
        base, _, anchor = triple_f32
        rows = diagnose(base, base, anchor)
        assert rows and all(row.norm_ml == 0.0 for row in rows)

    def test_single_tensor_group_matches_reference(self, rng):
        W = rng.normal(size=(4, 4)).astype(np.float32)
        ml = W + 0.1 * rng.normal(size=(4, 4)).astype(np.float32)
        mm = W + 0.1 * rng.normal(size=(4, 4)).astype(np.float32)
        name = "model.layers.0.self_attn.q_proj.weight"
        rows = diagnose(
            ckpt({name: W}), ckpt({name: ml}),
            ckpt({name: mm}),
        )
        assert len(rows) == 1
        row = rows[0]
        assert (row.layer, row.module) == (0, "attn.q")
        b64, l64, m64 = (np.asarray(a, dtype=np.float32).astype(np.float64) for a in (W, ml, mm))
        want_dd = np.mean([1.0 - reference.column_cosine(l64[:, j], b64[:, j]) for j in range(4)])
        assert row.norm_ml == pytest.approx(np.linalg.norm(l64 - b64))
        assert row.dirdev_ml == pytest.approx(want_dd)
        assert row.cross_cos == pytest.approx(reference.cross_alignment(l64 - b64, m64 - b64).mean())

    def test_small_residuals_keep_float64_precision(self):
        """Residuals 1e-4 the size of the base are summed directly, not
        expanded from sums of the raw tensors, which would lose about eight
        digits to cancellation."""
        rng = np.random.default_rng(13)
        base = rng.standard_normal((4096, 256), dtype=np.float32)
        ml, mm = (base + np.float32(1e-4) * rng.standard_normal(base.shape, dtype=np.float32) for _ in range(2))
        row = one_tensor_row(base, ml, mm)
        b64, l64, m64 = (a.astype(np.float64) for a in (base, ml, mm))
        d_ml, d_mm = l64 - b64, m64 - b64
        want_cross = np.mean(np.sum(d_ml * d_mm, axis=0)
                             / (np.linalg.norm(d_ml, axis=0) * np.linalg.norm(d_mm, axis=0)))
        assert abs(row.norm_ml / np.linalg.norm(d_ml) - 1.0) <= 1e-9
        assert abs(row.cross_cos - want_cross) <= 1e-9

    def test_scalar_counts_in_the_norm_only(self):
        name = "model.layers.0.mlp.down_proj.weight"
        rows = diagnose(ckpt({name: [[1.0]], "model.layers.0.mlp.scale": 2.0}),
                        ckpt({name: [[1.0]], "model.layers.0.mlp.scale": 5.0}),
                        ckpt({name: [[3.0]], "model.layers.0.mlp.scale": 2.0}))
        [down] = [r for r in rows if r.module == "mlp.down"]
        [other] = [r for r in rows if r.module == "other"]
        assert (down.norm_ml, down.norm_mm, down.cross_cos) == (0.0, 2.0, 0.0)
        assert (other.norm_ml, other.norm_mm, other.dirdev_ml, other.cross_cos) == (3.0, 0.0, None, None)

    def test_rows_sorted_and_grouped(self, triple_f32):
        base, ml, anchor = triple_f32
        rows = diagnose(base, ml, anchor)
        layers = {row.layer for row in rows}
        assert layers == set(range(LAYERS)) | {-1}
        keys = [(row.layer, row.module) for row in rows]
        assert len(keys) == len(set(keys))
        assert keys == sorted(keys, key=lambda lm: (lm[0], _order(lm[1])))

    def test_matches_independent_recomputation(self):
        base, ml, anchor = make_triple(seed=5)
        rows = diagnose(base, ml, anchor)
        by_key = {(r.layer, r.module): r for r in rows}
        row = by_key[(1, "mlp.down")]
        name = "model.layers.1.mlp.down_proj.weight"
        b = base[name].to_f64()
        l = ml[name].to_f64()
        m = anchor[name].to_f64()
        assert row.norm_ml == pytest.approx(np.linalg.norm(l - b), rel=1e-6)
        d_in = b.shape[1]
        want_dd = np.mean([1.0 - reference.column_cosine(l[:, j], b[:, j]) for j in range(d_in)])
        assert row.dirdev_ml == pytest.approx(want_dd, abs=1e-6)

    def test_schema_without_layers_warns_and_uses_minus_one(self, triple_f32, caplog):
        base, ml, anchor = triple_f32
        schema = ModuleKeySchema(layer_pattern="*.blocks.{n}.*")
        with caplog.at_level("WARNING", logger="dimerge.diagnostics"):
            rows = diagnose(base, ml, anchor, schema)
        assert all(row.layer == -1 for row in rows)
        assert any("no layer index" in rec.message for rec in caplog.records)

    def test_partition_of_squared_residual_norm(self):
        # squared row norms sum to the squared norm of the whole backbone
        # residual
        base, ml, anchor = make_triple(seed=9)
        rows = diagnose(base, ml, anchor)
        total_ml = sum(row.norm_ml**2 for row in rows)
        full = 0.0
        for name in base.names():
            d = ml[name].to_f64() - base[name].to_f64()
            full += float(np.sum(d * d))
        assert total_ml == pytest.approx(full, rel=1e-4)

    @pytest.mark.parametrize("role, values", [("multilingual", (-3e38, 3e38, 0.0)), ("anchor", (-3e38, 0.0, 3e38))])
    @pytest.mark.parametrize("shape", [(4, 2), (8,)])
    def test_residual_past_float32_rejected(self, role, values, shape):
        """Finite inputs whose residual is past float32 are a numeric error
        naming the tensor and the role, not a row of infinities and NaNs."""
        base, ml, mm = (np.full(shape, v, np.float32) for v in values)
        with pytest.raises(NumericError, match=f"^t: {role} residual contains non-finite values"):
            one_tensor_row(base, ml, mm)

    def test_same_rows_and_bytes_at_any_worker_count(self, tmp_path, monkeypatch):
        """Tensors are measured on the worker pool but added into their
        groups in order, so rows and both tables are the same at 1, 2 and 8
        workers. Several groups hold 2D tensors of different sizes beside 1D
        ones, so a group's sums depend on the order they are added in; later
        tensors are measured faster, so on a pool they finish out of order."""
        rng = np.random.default_rng(31)
        shapes = {"model.embed_tokens.weight": (300, 16), "model.norm.weight": (16,)}
        for layer in range(2):
            prefix = f"model.layers.{layer}."
            shapes[f"{prefix}self_attn.q_proj.weight"] = (16, 16)
            shapes[f"{prefix}input_layernorm.weight"] = (16,)
            for expert in range(8):
                shapes[f"{prefix}mlp.experts.{expert}.up_proj.weight"] = (24 * (8 - expert) + 3, 16)
                shapes[f"{prefix}mlp.experts.{expert}.up_proj.bias"] = (24 * (8 - expert) + 3,)
        base = {n: rng.normal(size=shape).astype(np.float32) for n, shape in shapes.items()}

        def perturbed(scale):
            return Checkpoint.from_records([
                TensorRecord.from_array(n, v + scale * rng.normal(size=v.shape).astype(np.float32))
                for n, v in base.items()])

        ckpts = [perturbed(scale) for scale in (0.0, 0.1, 0.1)]
        real, order = diagnostics.stream_column_sums, list(shapes)

        def reversed_finish(triple, *args):
            time.sleep(0.0005 * (len(order) - order.index(triple.name)))
            return real(triple, *args)

        monkeypatch.setattr(diagnostics, "stream_column_sums", reversed_finish)
        tables = {}
        for threads in (1, 2, 8):
            rows = diagnose(*ckpts, threads=threads)
            export_csv(rows, tmp_path / f"{threads}.csv")
            export_json(rows, tmp_path / f"{threads}.json")
            tables[threads] = [rows] + [(tmp_path / f"{threads}.{ext}").read_bytes() for ext in ("csv", "json")]
        assert len({(r.layer, r.module) for r in tables[1][0]}) == len(tables[1][0]) >= 8
        assert tables[2] == tables[1] and tables[8] == tables[1]

    def test_anchor_with_extra_rows_is_measured_on_the_shared_block(self, caplog):
        """An anchor with extra vocabulary rows gives exactly the rows of the
        same triple with its anchor cut to the block base and ml share, and
        one warning per tensor measured that way."""
        base, ml, anchor = make_triple(seed=11)
        rng = np.random.default_rng(3)
        grown = {name: rec.to_f32() for name, rec in anchor.tensors.items()}
        for name in ("model.embed_tokens.weight", "lm_head.weight"):
            grown[name] = np.concatenate([grown[name], rng.normal(size=(5, grown[name].shape[1]))])
        with caplog.at_level("WARNING", logger="dimerge.diagnostics"):
            rows = diagnose(base, ml, ckpt(grown))
        assert rows == diagnose(base, ml, anchor)
        warned = sorted(rec.getMessage().split(":")[0] for rec in caplog.records)
        assert warned == ["lm_head.weight", "model.embed_tokens.weight"]

    def test_rank_mismatch_is_an_error(self):
        name = "model.layers.0.mlp.up_proj.weight"
        with pytest.raises(AlignmentError, match="rank mismatch"):
            diagnose(ckpt({name: np.ones((2, 2))}), ckpt({name: np.ones((2, 2))}), ckpt({name: np.ones(4)}))

    def test_read_only(self, triple_f32):
        base, ml, anchor = triple_f32
        before = {n: base[n].raw for n in base.names()}
        diagnose(base, ml, anchor)
        assert all(base[n].raw == before[n] for n in base.names())


def _order(label: str) -> int:
    return ModuleKeySchema().label_order(label)


class TestExport:
    def _rows(self):
        return [
            HeatmapRow(0, "attn.q", 1.25, 0.5, 0.125, 0.0625, 0.25),
            HeatmapRow(-1, "norm.in", 0.75, 0.25, None, None, None),
        ]

    def test_csv_header_and_shape(self, tmp_path):
        path = tmp_path / "rows.csv"
        export_csv(self._rows(), path)
        with open(path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == list(CSV_HEADER)
        assert len(parsed) == 3
        assert parsed[1][2] == "1.25"
        assert parsed[2][4] == "nan"

    def test_single_row_csv(self, tmp_path):
        path = tmp_path / "one.csv"
        export_csv(self._rows()[:1], path)
        assert len(path.read_text().strip().splitlines()) == 2

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            export_csv([], tmp_path / "no.csv")
        with pytest.raises(ConfigError):
            export_json([], tmp_path / "no.json")

    def test_json_round_trip_to_nine_digits(self, tmp_path, rng):
        rows = [
            HeatmapRow(int(i), "attn.q", *(float(v) for v in rng.uniform(0.0, 2.0, size=4)),
                       float(rng.uniform(-1.0, 1.0)))
            for i in range(5)
        ]
        path = tmp_path / "rows.json"
        export_json(rows, path)
        loaded = json.loads(path.read_text())
        assert [d["layer"] for d in loaded] == [r.layer for r in rows]
        for d, row in zip(loaded, rows):
            for key in ("norm_ml", "norm_mm", "dirdev_ml", "dirdev_mm", "cross_cos"):
                want = float(format(getattr(row, _field(key)), ".9g"))
                got = float(format(d[key], ".9g"))
                assert got == want

    def test_csv_nine_significant_digits(self, tmp_path):
        rows = [HeatmapRow(0, "attn.q", 1.2345678912345, 2.0, 0.1, 0.2, 0.3)]
        path = tmp_path / "sig.csv"
        export_csv(rows, path)
        with open(path) as fh:
            parsed = list(csv.reader(fh))
        assert parsed[1][2] == "1.23456789"


def _field(csv_name: str) -> str:
    return csv_name
