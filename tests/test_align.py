import json

import numpy as np
import pytest

from dimerge.align import AlignedTriple, align_triple
from dimerge.cli import main
from dimerge.errors import AlignmentError, ConfigError
from dimerge.records import TensorRecord
from dimerge.store import Checkpoint, save_checkpoint

from conftest import ANCHOR_EXTRA_SHAPES


def ckpt(arrays: dict) -> Checkpoint:
    records = [TensorRecord.from_array(n, np.asarray(a, dtype=np.float32)) for n, a in arrays.items()]
    return Checkpoint.from_records(records)


class TestAlignment:
    def test_identical_key_sets_align_fully(self, triple_f32):
        base, ml, anchor = triple_f32
        triples, report = align_triple(base, ml, anchor)
        assert set(report.aligned) == set(base.names())
        assert report.pass_through == dict.fromkeys(ANCHOR_EXTRA_SHAPES, "anchor_only")
        assert not report.shape_mismatches

    def test_totality_every_anchor_key_accounted(self, triple_f32):
        base, ml, anchor = triple_f32
        triples, report = align_triple(base, ml, anchor)
        covered = set(report.aligned) | set(report.pass_through)
        assert covered == set(anchor.names())

    def test_missing_from_one_source(self):
        base = ckpt({"a": [1.0], "b": [2.0]})
        ml = ckpt({"a": [1.0]})
        anchor = ckpt({"a": [1.0], "b": [2.0], "v": [3.0]})
        triples, report = align_triple(base, ml, anchor)
        assert [t.name for t in triples] == ["a"]
        assert report.pass_through == {"b": "missing_from_ml", "v": "anchor_only"}
        triples, report = align_triple(ml, base, anchor)
        assert report.pass_through == {"b": "missing_from_base", "v": "anchor_only"}

    def test_strict_aborts_on_shape_mismatch(self):
        base = ckpt({"embed": np.zeros((5, 2))})
        ml = ckpt({"embed": np.zeros((5, 2))})
        anchor = ckpt({"embed": np.zeros((7, 2))})
        with pytest.raises(AlignmentError, match="embed"):
            align_triple(base, ml, anchor, shape_policy="strict")

    def test_anchor_overlap_crops_leading_block(self):
        b = np.arange(10, dtype=np.float32).reshape(5, 2)
        a = np.arange(14, dtype=np.float32).reshape(7, 2)
        base = ckpt({"embed": b})
        ml = ckpt({"embed": b + 1})
        anchor = ckpt({"embed": a})
        triples, report = align_triple(base, ml, anchor, shape_policy="anchor-overlap")
        assert triples[0].shape == (5, 2)
        np.testing.assert_array_equal(triples[0].to_f32()[2], a[:5, :])
        assert report.shape_mismatches[0].overlap_shape == (5, 2)

    def test_high_rank_rejected_by_default(self):
        cube = np.zeros((2, 2, 2), dtype=np.float32)
        base = ckpt({"c": cube})
        ml = ckpt({"c": cube})
        anchor = ckpt({"c": cube})
        with pytest.raises(AlignmentError, match="rank-3"):
            align_triple(base, ml, anchor)
        triples, report = align_triple(base, ml, anchor, high_rank="pass_through")
        assert not triples
        assert report.pass_through == {"c": "high_rank"}

    def test_report_dict_serializes_as_json(self, triple_f32):
        base, ml, anchor = triple_f32
        _, report = align_triple(base, ml, anchor)
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["pass_through"] == dict.fromkeys(ANCHOR_EXTRA_SHAPES, "anchor_only")

    def test_report_dict_nests_each_mismatch_as_an_object(self):
        base, ml, anchor = (ckpt({"embed": np.zeros(shape)}) for shape in ((5, 2), (5, 3), (7, 2)))
        _, report = align_triple(base, ml, anchor, shape_policy="anchor-overlap")
        assert report.to_dict() == {
            "aligned": ["embed"], "pass_through": {}, "extra_in_base": [], "extra_in_ml": [],
            "shape_mismatches": [{"name": "embed", "base_shape": [5, 2], "ml_shape": [5, 3], "anchor_shape": [7, 2],
                                  "overlap_shape": [5, 2]}],
        }


class TestRejected:
    def test_aligned_triple_shapes_must_agree(self):
        records = [TensorRecord.from_array("t", np.zeros(shape, np.float32)) for shape in ((2, 2), (2, 2), (3, 2))]
        with pytest.raises(AlignmentError, match=r"^t: aligned shapes differ \(2, 2\) / \(2, 2\) / \(3, 2\)$"):
            AlignedTriple("t", *records)
        with pytest.raises(AlignmentError, match=r"^t: region \(3, 2\) is not inside"):
            AlignedTriple("t", *records, shape=(3, 2))
        with pytest.raises(AlignmentError, match=r"^t: region \(2,\) is not inside"):
            AlignedTriple("t", *records, shape=(2,))

    @pytest.mark.parametrize("policies, match", [
        ({"shape_policy": "loose"}, "unknown shape policy 'loose'"),
        ({"high_rank": "keep"}, "unknown high-rank policy 'keep'"),
    ])
    def test_unknown_policy(self, triple_f32, policies, match):
        with pytest.raises(ConfigError, match=match):
            align_triple(*triple_f32, **policies)

    def test_anchor_overlap_needs_one_rank(self, tmp_path, capsys):
        shapes = {"base_path": (4, 4), "multilingual_path": (4, 4), "anchor_path": (16,)}
        config = {"output_path": str(tmp_path / "merged"), "merge": {"shape_policy": "anchor-overlap"}}
        for key, shape in shapes.items():
            save_checkpoint(ckpt({"w": np.zeros(shape)}), tmp_path / key)
            config[key] = str(tmp_path / key)
        with pytest.raises(AlignmentError, match=r"^w: rank mismatch .* cannot overlap$"):
            align_triple(*(ckpt({"w": np.zeros(shape)}) for shape in shapes.values()), shape_policy="anchor-overlap")
        (tmp_path / "run.json").write_text(json.dumps(config))
        assert main(["merge", "--config", str(tmp_path / "run.json")]) == 4
        assert capsys.readouterr().err.startswith("error[align.shape]: w: rank mismatch")
        assert not (tmp_path / "merged").exists()
