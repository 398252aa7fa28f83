"""Self-tests of the benchmark's generator and output checks.

Usage (from the repository root): python3 perfbench/selftest.py

They run on tiny triples in seconds: the generator is deterministic in its
seed, and the checker accepts a real merge but rejects an output with one
merged element one storage step outside tolerance, with one pass-through
tensor altered, or with one diagnose value perturbed.
"""

from __future__ import annotations

import json
import shutil
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import traced  # noqa: E402
from run import SRC, WORK, dimerge_args, spawn  # noqa: E402
from tensorfile import ITEMSIZE, TensorFile, bits_view, to_f64, tree_sha256  # noqa: E402
from workloads import InputSpec, Workload, WORKLOADS, generate  # noqa: E402

TMP = WORK / "selftest"
TINY = InputSpec(layers=2, hidden=64, inter=160, vocab=256, vision_hidden=32, vision_blocks=1)
TINY_SHARDED = replace(TINY, dtype="F16", vocab_extra=8, shard_bytes=64 * 1024)


def _fresh(name: str) -> Path:
    path = TMP / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _tiny_workload(base: str, spec: InputSpec) -> Workload:
    wl = WORKLOADS[base]
    oracle = tuple(sorted(checks.merged_names(replace(wl, inputs=spec))))
    return replace(wl, name=f"tiny-{base}", inputs=spec, oracle=oracle)


def _merge(wl: Workload, seed: int, name: str) -> tuple[Path, Path]:
    d = _fresh(name)
    generate(wl.inputs, seed, d / "in")
    cfg = {
        "base_path": str(d / "in" / "base"), "multilingual_path": str(d / "in" / "multilingual"),
        "anchor_path": str(d / "in" / "anchor"), "output_path": str(d / "out"),
        "remap": {"preset": "llama"}, "merge": wl.merge,
        "diagnose": {"schema": {"preset": "llama"}, "csv_path": str(d / "diag.csv"), "json_path": str(d / "diag.json")},
    }
    if wl.shard_limit:
        cfg["shard_limit"] = 64 * 1024
    (d / "config.json").write_text(json.dumps(cfg))
    args = ["--config", str(d / "config.json")]
    args = ["merge", *args, "--threads", "1"] if wl.command == "merge" else ["diagnose", *args]
    inv = spawn(dimerge_args(*args), d / "logs")
    assert inv.code == 0, inv.stderr
    return d / "in", d


def _patch(path: Path, name: str, index: int, bits: int) -> None:
    """Overwrite one element's storage bits in the file holding ``name``."""
    for f in sorted(path.rglob("*.safetensors")):
        tf = TensorFile(f)
        if name in tf.header:
            e = tf.header[name]
            width = ITEMSIZE[e["dtype"]]
            with open(f, "r+b") as fh:
                fh.seek(tf.body_start + e["data_offsets"][0] + index * width)
                fh.write(int(bits).to_bytes(width, "little"))
            return
    raise KeyError(name)


def _read_bits(path: Path, name: str) -> tuple[np.ndarray, str]:
    for f in sorted(path.rglob("*.safetensors")):
        tf = TensorFile(f)
        if name in tf.header:
            e = tf.header[name]
            return bits_view(tf.read(name), e["dtype"], e["shape"]).ravel().copy(), e["dtype"]
    raise KeyError(name)


def _decode(bits: int, dtype: str) -> float:
    raw = int(bits).to_bytes(ITEMSIZE[dtype], "little")
    return float(to_f64(raw, dtype, (1,))[0])


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_generator_is_deterministic_in_its_seed():
    d = _fresh("determinism")
    for spec in (TINY, TINY_SHARDED):
        generate(spec, 5, d / "a")
        generate(spec, 5, d / "b")
        generate(spec, 6, d / "c")
        for role in ("base", "multilingual", "anchor"):
            a, b, c = (tree_sha256(d / x / role) for x in "abc")
            assert a == b, f"{role}: same seed gave different bytes"
            assert a != c, f"{role}: different seeds gave the same bytes"
        shutil.rmtree(d)


def test_checker_accepts_real_merges():
    for base, spec in (("dim3-small", TINY), ("ties-small", TINY_SHARDED)):
        wl = _tiny_workload(base, spec)
        inputs, d = _merge(wl, 3, wl.name)
        assert checks.check_merge(wl, inputs, d / "out") == [], wl.name
        assert checks.check_report(Path(f"{d / 'out'}.report.json"), wl) == [], wl.name


def test_checker_rejects_one_element_one_step_outside_tolerance():
    for base, spec, name in (("dim3-small", TINY, "model.layers.1.mlp.down_proj.weight"),
                             ("ties-small", TINY_SHARDED, "model.layers.1.mlp.down_proj.weight"),
                             ("ties-small", TINY_SHARDED, "lm_head.weight")):
        wl = _tiny_workload(base, spec)
        inputs, d = _merge(wl, 4, wl.name)
        ref, tol, _, _ = checks.reference_for(wl, inputs, name)
        index = 17                                 # inside the merged block for every shape above
        row, col = divmod(index, ref.shape[1])
        bits, dtype = _read_bits(d / "out", name)
        target = ref[row, col] + np.sign(ref[row, col]) * tol[row, col]
        # smallest storage value beyond the tolerance band, walking away from zero
        step = int(bits[index])
        while abs(_decode(step, dtype)) <= abs(target):
            step += 1
        _patch(d / "out", name, index, step - 1)
        assert checks.check_merge(wl, inputs, d / "out", oracle_names=[name]) == [], "edge of tolerance rejected"
        _patch(d / "out", name, index, step)
        problems = checks.check_merge(wl, inputs, d / "out", oracle_names=[name])
        assert problems and "ulp" in problems[0], f"{wl.name}: one step outside tolerance accepted"


def test_checker_rejects_altered_pass_through():
    for base, spec, name, index in (
        ("dim3-small", TINY, "vision_tower.vision_model.encoder.layers.0.mlp.fc1.weight", 5),
        ("ties-small", TINY_SHARDED, "lm_head.weight", TINY_SHARDED.vocab * TINY_SHARDED.hidden + 3),
    ):
        wl = _tiny_workload(base, spec)
        inputs, d = _merge(wl, 5, wl.name)
        bits, _ = _read_bits(d / "out", name)
        _patch(d / "out", name, index, int(bits[index]) ^ 1)
        problems = checks.check_merge(wl, inputs, d / "out", oracle_names=[])
        assert problems, f"{wl.name}: altered {name} accepted"


def test_checker_rejects_perturbed_diagnose_row():
    wl = replace(WORKLOADS["diagnose-small"], inputs=TINY)
    inputs, d = _merge(wl, 6, "tiny-diagnose")
    reference = checks.diagnose_reference(inputs)
    assert checks.check_diagnose(d / "diag.json", d / "diag.csv", reference) == []
    rows = json.loads((d / "diag.json").read_text())
    rows[3]["dirdev_ml"] *= 1 + 1e-5
    (d / "diag.json").write_text(json.dumps(rows))
    assert checks.check_diagnose(d / "diag.json", d / "diag.csv", reference), "perturbed diagnose row accepted"


def test_trace_lists_absent_targets_and_accounts_for_wall_time():
    sys.path.insert(0, str(SRC))
    tracer = traced.Tracer()
    missing = (("dimerge.merge", "no_such_function", "x", "merge", None),
               ("dimerge.no_such_module", "f", "x", "merge", None),
               ("dimerge.records", "NoSuchClass.method", "x", "records", None))
    absent = traced.install(tracer, traced.TARGETS + missing)
    assert absent == ["dimerge.merge.no_such_function", "dimerge.no_such_module.f",
                      "dimerge.records.NoSuchClass.method"], absent
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 6]
    rows = [[0, "cli.main", "cli", 0.0, 10.0, None, 1, {}], [1, "merge.merge_checkpoint", "merge", 1.0, 4.0, 0, 1, {}],
            [2, "geometry.decompose", "geometry", 2.0, 3.0, 1, 1, {}], [3, "store.read", "store", 5.0, 6.0, 0, 1, {}]]
    layer_self = spans.Spans(rows).layer_self()
    assert (layer_self["cli"], layer_self["merge"], layer_self["geometry"], layer_self["store"]) == (6.0, 2.0, 1.0, 1.0)
    assert sum(layer_self.values()) == 10.0


def main() -> int:
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_") and callable(f)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    shutil.rmtree(TMP, ignore_errors=True)
    print(f"{len(tests) - failed}/{len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
