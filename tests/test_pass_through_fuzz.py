"""Property test: every anchor tensor is merged or passed through with one reason.

Small anchors are drawn whose keys are missing from the base, the
multilingual source or both, are rank-3 under ``high_rank="pass_through"``,
are scalars, or are out of scope. The merge report lists each anchor
tensor once, its counts add up to the anchor, and alignment's
``pass_through`` map agrees with the entries: alignment decides the keys a
source lacks and the rank-3 ones, the merge adds scope and scalars.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dimerge.merge import MergeConfig, merge_checkpoint
from dimerge.records import TensorRecord
from dimerge.scope import ScopeFilter
from dimerge.store import Checkpoint

PROPERTY = settings(max_examples=200)

SHAPES = {0: (), 1: (3,), 2: (2, 3), 3: (2, 2, 2)}
CFG = MergeConfig(scope=ScopeFilter(exclude=("skip.*",)), high_rank="pass_through")

# one anchor key: (in base, in ml, rank, in scope)
KEYS = st.lists(st.tuples(st.booleans(), st.booleans(), st.sampled_from(sorted(SHAPES)), st.booleans()),
                min_size=1, max_size=8)


def expected_reason(in_base: bool, in_ml: bool, rank: int, in_scope: bool) -> str | None:
    if not in_base and not in_ml:
        return "anchor_only"
    if not in_base or not in_ml:
        return "missing_from_base" if in_ml else "missing_from_ml"
    if rank == 3:
        return "high_rank"
    if not in_scope:
        return "out_of_scope"
    return "scalar" if rank == 0 else None


@PROPERTY
@given(keys=KEYS, extra=st.booleans())
def test_each_anchor_tensor_has_one_outcome(keys, extra):
    sources = {"base": [], "ml": [], "anchor": []}
    expected = {}
    for i, (in_base, in_ml, rank, in_scope) in enumerate(keys):
        name = f"{'' if in_scope else 'skip.'}k{i}"
        expected[name] = expected_reason(in_base, in_ml, rank, in_scope)
        for role, value, present in (("base", 0.0, in_base), ("ml", 1.0, in_ml), ("anchor", 2.0, True)):
            if present:
                sources[role].append(TensorRecord.from_array(name, np.full(SHAPES[rank], value, np.float32)))
    if extra:
        sources["base"].append(TensorRecord.from_array("extra", np.zeros(2, np.float32)))
    base, ml, anchor = (Checkpoint.from_records(sources[role]) for role in ("base", "ml", "anchor"))

    with tempfile.TemporaryDirectory() as tmp:
        report = merge_checkpoint(base, ml, anchor, CFG, Path(tmp) / "merged", threads=1)
    report = json.loads(json.dumps(report.to_dict()))

    entries = report["tensors"]
    assert sorted(t["name"] for t in entries) == sorted(anchor.names()) == sorted(expected)
    reasons = {t["name"]: t.get("reason") for t in entries}
    assert reasons == expected
    assert all((t["action"] == "merged") == (t.get("reason") is None) for t in entries)
    summary = report["summary"]
    assert summary["merged_count"] == sum(r is None for r in expected.values())
    assert summary["merged_count"] + summary["pass_through_count"] == len(anchor)

    alignment = report["alignment"]
    decided = alignment["pass_through"]
    assert decided == {n: r for n, r in expected.items() if r not in (None, "out_of_scope", "scalar")}
    assert sorted(alignment["aligned"]) == sorted(
        n for n, r in expected.items() if r in (None, "out_of_scope", "scalar"))
    assert alignment["extra_in_base"] == (["extra"] if extra else [])
