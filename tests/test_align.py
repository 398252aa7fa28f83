import json

import numpy as np
import pytest

from dimerge.align import align_triple
from dimerge.errors import AlignmentError
from dimerge.records import TensorRecord
from dimerge.store import Checkpoint

from conftest import ANCHOR_EXTRA_SHAPES


def ckpt(arrays: dict) -> Checkpoint:
    records = [TensorRecord.from_array(n, np.asarray(a, dtype=np.float32)) for n, a in arrays.items()]
    return Checkpoint.from_records(records)


class TestAlignment:
    def test_identical_key_sets_align_fully(self, triple_f32):
        base, ml, anchor = triple_f32
        triples, report = align_triple(base, ml, anchor)
        assert set(report.aligned) == set(base.names())
        assert set(report.pass_through) == set(ANCHOR_EXTRA_SHAPES)
        assert set(report.anchor_only) == set(ANCHOR_EXTRA_SHAPES)
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
        assert report.missing_from_ml == ["b"]
        assert report.anchor_only == ["v"]
        assert set(report.pass_through) == {"b", "v"}

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
        assert report.high_rank == ["c"]

    def test_report_dict_serializes_as_json(self, triple_f32):
        base, ml, anchor = triple_f32
        _, report = align_triple(base, ml, anchor)
        blob = json.dumps(report.to_dict())
        assert '"anchor_only"' in blob
