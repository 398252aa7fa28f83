"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest -s`` to see them inline).

Numeric criteria are checked against the independent float64 reference in
``reference.py`` (its compose exact in rationals) at pinned tolerances.
"""

import time

import numpy as np
import pytest

from dimerge.align import AlignedTriple
from dimerge.baselines import BaselineParams
from dimerge.diagnostics import diagnose
from dimerge.merge import MergeConfig, merge_tensor
from dimerge.records import DType, TensorRecord
from dimerge.salience import ESTIMATORS, AggregationKind, estimate_salience, salience_pair
from dimerge.scope import ScopeFilter
from dimerge.store import Checkpoint, load_checkpoint, save_checkpoint

from conftest import make_triple, merge_and_load, residual_split
from test_baselines import breadcrumbs, dare, record_of
from test_merge import checkpoint_digest, triple_of
import reference

ULP_OF_ONE = np.spacing(1.0)


def _report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} failed: {label}{suffix}"


def test_criterion_1_residual_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst64 = worst32 = 0.0
    for _ in range(1000):
        d = int(rng.integers(4, 513))
        u = rng.normal(size=d) * 10.0 ** rng.integers(-2, 3)
        v = rng.normal(size=d) * 10.0 ** rng.integers(-2, 3)
        lhs, rhs = residual_split(u, v)
        worst64 = max(worst64, abs(lhs - rhs) / (1.0 + abs(lhs)))
        lhs32, rhs32 = residual_split(u.astype(np.float32), v.astype(np.float32))
        worst32 = max(worst32, abs(lhs32 - rhs32) / (1.0 + abs(lhs32)))
    elapsed = time.perf_counter() - start
    ok = worst64 <= 1e-10 and worst32 <= 1e-5 and elapsed < 5.0
    _report(1, "column residual identity on 1000 random pairs", ok,
            f"gap64={worst64:.2e}, gap32={worst32:.2e}, {elapsed:.2f}s")


def test_criterion_2_softmax_sigmoid_equivalence():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    a = rng.uniform(-25.0, 25.0, size=10_000)
    b = rng.uniform(-25.0, 25.0, size=10_000)
    s_ml, s_mm = salience_pair(a, b)
    worst = 0.0
    for ai, bi, got_ml, got_mm in zip(a, b, s_ml, s_mm):
        ref_ml, ref_mm = reference.softmax_pair(ai, bi)
        worst = max(worst, abs(got_ml - ref_ml), abs(got_mm - ref_mm))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(2, "two-source softmax equals logistic of the gap on 10^4 pairs", ok,
            f"gap={worst:.2e}, {elapsed:.2f}s")


def _random_triples(rng, count_2d=120, count_1d=80):
    for _ in range(count_2d):
        d_out = int(rng.integers(2, 65))
        d_in = int(rng.integers(2, 65))
        base = rng.normal(size=(d_out, d_in)).astype(np.float32)
        ml = (base + rng.normal(scale=0.5, size=(d_out, d_in))).astype(np.float32)
        mm = (base + rng.normal(scale=0.5, size=(d_out, d_in))).astype(np.float32)
        yield triple_of(base, ml, mm)
    for _ in range(count_1d):
        n = int(rng.integers(2, 257))
        base = rng.normal(size=n).astype(np.float32)
        ml = (base + rng.normal(scale=0.5, size=n)).astype(np.float32)
        mm = (base + rng.normal(scale=0.5, size=n)).astype(np.float32)
        yield triple_of(base, ml, mm)


def test_criterion_3_and_4_oracle_equivalence_and_simplex(monkeypatch):
    import dimerge.merge as merge_module

    # the weights that each merge_tensor call composes with, as the merge computes them
    weighed = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            weighed.append(fn(*args, **kwargs))
            return weighed[-1]
        return wrapper

    for name in ("aggregate_branches", "elementwise_salience"):
        monkeypatch.setattr(merge_module, name, recording(getattr(merge_module, name)))

    rng = np.random.default_rng(103)
    cfg = MergeConfig()
    start = time.perf_counter()
    worst = 0.0
    simplex_ok = True
    bounds_ok = True
    for triple in _random_triples(rng):
        weighed.clear()
        got = merge_tensor(triple, cfg).to_f32()
        if triple.rank == 2:
            want, _ = reference.merge_2d(
                triple.base.to_f32(), triple.ml.to_f32(), triple.mm.to_f32(), epsilon=cfg.epsilon
            )
            d = triple.shape[1]
        else:
            want, _ = reference.merge_1d(triple.base.to_f32(), triple.ml.to_f32(),
                                         triple.mm.to_f32())
            d = triple.shape[0]
        (weights,) = weighed
        worst = max(worst, float(np.max(np.abs(got - want))))
        simplex_ok &= bool(np.all(np.abs(weights.omega_ml + weights.omega_mm - 1.0) <= ULP_OF_ONE))
        lo = reference.logistic(-(d - 1) / d)
        hi = reference.logistic((d - 1) / d)
        for s in (weights.s_mag_ml, weights.s_dir_ml):
            bounds_ok &= bool(np.all(s >= lo - 1e-15) and np.all(s <= hi + 1e-15))
    elapsed = time.perf_counter() - start
    _report(3, "merge matches straight-line float64 reference on 200 triples",
            worst <= 1e-5 and elapsed < 30.0, f"max|diff|={worst:.2e}, {elapsed:.1f}s")
    _report(4, "simplex sum within 1 ulp and rank branch scores within bounds",
            simplex_ok and bounds_ok)


def test_oracle_composes_exactly_beside_a_huge_base():
    """Criterion 3's oracle composes in exact rationals. Beside a base near
    -float32 max, small ml values and an F16 anchor near its limit, the
    paper's form cancels to 0 in float64; the merge's F16 output must lie
    within one output ulp of the exact value."""
    base, ml = (TensorRecord.from_array("t", np.array([values], np.float32)) for values in ([-3.4e38] * 2, [0.0, -1.5]))
    anchor = TensorRecord.from_array("t", np.array([[65504.0, 65472.0]], np.float32), DType.F16)
    got = merge_tensor(AlignedTriple("t", base, ml, anchor), MergeConfig())
    want, _ = reference.merge_2d(base.to_f32(), ml.to_f32(), anchor.to_f32())
    ulp = np.spacing(np.abs(want).astype(np.float16)).astype(np.float64)
    assert got.dtype is DType.F16
    assert np.all(np.abs(got.to_f32() - want) <= ulp), (got.to_f32(), want)


def test_criterion_5_trivial_limits():
    base, ml, anchor = make_triple(seed=55)

    zero_anchor = Checkpoint.from_records(
        [base[n] if n in base else rec for n, rec in anchor.tensors.items()]
    )
    merged_zero, _ = merge_and_load(base, base, zero_anchor, MergeConfig())
    zero_ok = checkpoint_digest(merged_zero) == checkpoint_digest(zero_anchor)

    # identical residuals: anchor backbone equals ml, so merged = base + delta
    same_anchor = Checkpoint.from_records(
        [ml[n] if n in ml else rec for n, rec in anchor.tensors.items()]
    )
    merged_same, _ = merge_and_load(base, ml, same_anchor, MergeConfig())
    same_ok = all(
        np.allclose(merged_same[n].to_f32(), ml[n].to_f32(), atol=1e-6) for n in base.names()
    )

    merged_empty, _ = merge_and_load(base, ml, anchor, MergeConfig(scope=ScopeFilter.from_dict("empty")))
    empty_ok = checkpoint_digest(merged_empty) == checkpoint_digest(anchor)

    _report(5, "zero residuals / identical residuals / empty scope limits",
            zero_ok and same_ok and empty_ok,
            f"zero={zero_ok}, identical={same_ok}, empty={empty_ok}")


def test_criterion_6_scope_ablation_fidelity():
    base, ml, anchor = make_triple(seed=56)
    full, _ = merge_and_load(base, ml, anchor, MergeConfig())
    presets = [
        ScopeFilter.from_dict("embed_only"),
        ScopeFilter.from_dict("llm_only"),
        ScopeFilter.from_dict("lmhead_only"),
        ScopeFilter.from_dict({"preset": "layers", "layer_range": [0, 0]}),
        ScopeFilter.from_dict({"preset": "layers", "layer_range": [1, 1]}),
        ScopeFilter.from_dict({"preset": "layers", "layer_range": [0, 1]}),
    ]
    ok = True
    for scope in presets:
        merged, _ = merge_and_load(base, ml, anchor, MergeConfig(scope=scope))
        for name in anchor.names():
            if scope.admits(name) and name in base:
                ok &= bool(np.allclose(merged[name].to_f32(), full[name].to_f32(), atol=1e-6))
            else:
                ok &= merged[name].raw == anchor[name].raw
    _report(6, "scope presets: out-of-scope bitwise anchor, in-scope equals full merge", ok)


def test_criterion_7_ablation_variants():
    base, ml, anchor = make_triple(seed=57)
    aggregations = [
        AggregationKind("average"),
        AggregationKind("dir_weighted", 0.75),
        AggregationKind("mag_weighted", 0.75),
        AggregationKind("mag_only"),
        AggregationKind("dir_only"),
    ]
    ran_ok = True
    for estimator in ESTIMATORS:
        for agg in aggregations:
            cfg = MergeConfig(estimator=estimator, aggregation=agg)
            merged, report = merge_and_load(base, ml, anchor, cfg)
            ran_ok &= report.summary.merged_count == len(base)

    symmetric_ok = True
    rng = np.random.default_rng(570)
    dev = rng.uniform(0.1, 1.0, size=24)
    for estimator in ESTIMATORS:
        s_ml, s_mm = estimate_salience(dev, dev.copy(), estimator)
        symmetric_ok &= bool(np.all(s_ml == 0.5) and np.all(s_mm == 0.5))

    # dyadic values keep 3x, 3x + x, and the quotient exact in IEEE floats
    dev_mm = rng.choice([0.25, 0.5, 1.0, 2.0, 4.0], size=16)
    s_ml, s_mm = estimate_salience(3.0 * dev_mm, dev_mm, "ratio")
    ratio_ok = bool(np.all(s_ml == 0.75) and np.all(s_mm == 0.25))

    _report(7, "five estimators x five aggregations run; ties are 0.5/0.5; 3:1 ratio is 0.75/0.25",
            ran_ok and symmetric_ok and ratio_ok,
            f"runs={ran_ok}, symmetric={symmetric_ok}, ratio={ratio_ok}")


def test_criterion_8_baseline_sanity():
    rng = np.random.default_rng(58)
    delta = record_of(rng.normal(size=256))
    identity_ok = dare(delta.to_f32(), p=0.0, seed=0).tobytes() == delta.raw

    values = rng.normal(size=16).astype(np.float32)
    rec = record_of(values)
    acc = np.zeros(16, dtype=np.float64)
    trials = 10_000
    for seed in range(trials):
        acc += dare(rec.to_f32(), p=0.5, seed=seed)
    mean = acc / trials
    unbiased_ok = bool(np.all(np.abs(mean - values) <= 0.01 * np.abs(values) + 0.015))

    # both residuals dropped by their own streams, against the reference masks
    # (drawn from their own generator, so the draws below stay as they were)
    base, ml, mm = np.random.default_rng(580).normal(size=(3, 8, 6)).astype(np.float32)
    dare_cfg = MergeConfig(method="dare", seed=4, baseline=BaselineParams(dare_drop_p=0.5, lam=0.8))
    dare_got = merge_tensor(triple_of(base, ml, mm, name="w"), dare_cfg).raw
    dare_want = reference.task_arithmetic(base, reference.dare(ml - base, 0.5, 4, "ml:w"),
                                          reference.dare(mm - base, 0.5, 4, "mm:w"), 0.8)
    reference_ok = dare_got == dare_want.tobytes()

    ties_full_density = MergeConfig(method="ties", baseline=BaselineParams(ties_density=1.0, lam=1.0))
    ties_trace = merge_tensor(triple_of([0.0, 0.0], [1.0, -2.0], [1.0, 1.0]), ties_full_density)
    trace_ok = np.array_equal(ties_trace.to_f32(), np.array([1.0, -2.0], dtype=np.float32))

    base = rng.normal(size=(6, 6)).astype(np.float32)
    d1 = np.abs(rng.normal(size=(6, 6))).astype(np.float32)
    d2 = np.abs(rng.normal(size=(6, 6))).astype(np.float32)
    ties_full = merge_tensor(triple_of(base, base + d1, base + d2), ties_full_density).to_f32()
    mean_ok = bool(np.allclose(ties_full, base + 0.5 * (d1 + d2), atol=1e-6))

    bc = breadcrumbs(delta.to_f32(), beta=0.0, gamma=0.0)
    bc_ok = bc.tobytes() == delta.raw

    _report(8, "DARE identity/unbiasedness, TIES trace and no-conflict mean, breadcrumbs identity",
            identity_ok and reference_ok and unbiased_ok and trace_ok and mean_ok and bc_ok,
            f"dare_id={identity_ok}, dare_ref={reference_ok}, dare_mean={unbiased_ok}, ties={trace_ok}, "
            f"ties_mean={mean_ok}, breadcrumbs={bc_ok}")


def _tall_triple(seed: int):
    """Tensors taller than 16 summation tiles, in bf16, with an anchor that is
    wider than the sources in rows and columns."""
    rng = np.random.default_rng(seed)
    shapes = {"model.embed_tokens.weight": (1100, 6), "model.layers.0.mlp.down_proj.weight": (1030, 5),
              "model.norm.weight": (6,)}
    base = {n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
    ml = {n: v + rng.normal(scale=0.05, size=v.shape).astype(np.float32) for n, v in base.items()}
    anchor = {n: v + rng.normal(scale=0.05, size=v.shape).astype(np.float32) for n, v in base.items()}
    anchor["model.embed_tokens.weight"] = np.pad(anchor["model.embed_tokens.weight"], ((0, 40), (0, 2)),
                                                 constant_values=0.5)
    return tuple(
        Checkpoint.from_records([TensorRecord.from_array(n, v, dtype=DType.BF16) for n, v in arrays.items()])
        for arrays in (base, ml, anchor)
    )


def test_criterion_9_determinism_across_workers(monkeypatch):
    import dimerge.merge
    from dimerge.geometry import TILE_ROWS

    base, ml, anchor = make_triple(seed=59)
    digests = {
        checkpoint_digest(merge_and_load(base, ml, anchor, MergeConfig(), threads=w)[0])
        for w in (1, 2, 8)
    }
    dare_cfg = MergeConfig(method="dare", seed=123,
                           baseline=BaselineParams(dare_drop_p=0.5))
    dare_digests = {
        checkpoint_digest(merge_and_load(base, ml, anchor, dare_cfg, threads=w)[0])
        for w in (1, 2, 8)
    }
    # streamed dim3: I/O blocks of 1, 4 and 16 summation tiles, at 1 and 2 workers
    tall = _tall_triple(seed=590)
    overlap = MergeConfig(shape_policy="anchor-overlap")
    block_digests = set()
    for tiles in (1, 4, 16):
        monkeypatch.setattr(dimerge.merge, "_block_rows", lambda cols, tiles=tiles: tiles * TILE_ROWS)
        block_digests |= {checkpoint_digest(merge_and_load(*tall, overlap, threads=w)[0]) for w in (1, 2)}
    ok = len(digests) == 1 and len(dare_digests) == 1 and len(block_digests) == 1
    _report(9, "identical digests under 1/2/8 workers, including seeded DARE, and under "
               "1/4/16-tile blocks at 1/2 workers with anchor overlap", ok)


def test_criterion_10_format_round_trip_and_partition(tmp_path):
    rng = np.random.default_rng(60)
    ok = True
    for dtype in (DType.F32, DType.F16, DType.BF16):
        records = [
            TensorRecord.from_array(f"t{i}", rng.normal(size=(32, 16)).astype(np.float32), dtype=dtype)
            for i in range(4)
        ]
        ckpt = Checkpoint.from_records(records)
        for label, limit in (("single", 1 << 30), ("sharded", 1024)):
            target = tmp_path / f"{dtype.value}_{label}"
            save_checkpoint(ckpt, target, shard_limit=limit)
            loaded = load_checkpoint(target)
            ok &= loaded.names() == ckpt.names()
            ok &= all(loaded[n].raw == ckpt[n].raw and loaded[n].dtype is dtype for n in ckpt.names())

    base, ml, anchor = make_triple(seed=61)
    rows = diagnose(base, ml, anchor)
    for source in ("ml", "mm"):
        row_sum = sum(getattr(r, f"norm_{source}") ** 2 for r in rows)
        other = ml if source == "ml" else _backbone_of(anchor, base)
        full = sum(
            float(np.sum((other[n].to_f64() - base[n].to_f64()) ** 2)) for n in base.names()
        )
        ok &= abs(row_sum - full) <= 1e-4 * full
    _report(10, "bitwise save/load for f32/f16/bf16 plus residual-norm partition", ok)


def _backbone_of(anchor: Checkpoint, base: Checkpoint) -> Checkpoint:
    records = [rec for name, rec in anchor.tensors.items() if name in base]
    return Checkpoint.from_records(records)
