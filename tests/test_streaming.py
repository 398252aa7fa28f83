"""The streamed merge: memory bounded by one row block, outputs that do not
depend on the block size, and the on-disk writer behind it."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import dimerge
import dimerge.baselines as baselines_module
import dimerge.diagnostics as diagnostics_module
import dimerge.merge as merge_module
from dimerge.baselines import BaselineParams
from dimerge.geometry import TILE_ROWS
from dimerge.errors import NumericError
from dimerge.align import align_triple
from dimerge.diagnostics import diagnose
from dimerge.merge import MergeConfig, merge_checkpoint, merge_tensor
from dimerge.records import DType, TensorRecord, encode_bits, recode_bits
from dimerge.store import Checkpoint, CheckpointWriter, load_checkpoint, remap_keys, save_checkpoint

from conftest import aligned_f32, merge_and_load
import reference

MIB = 1024 * 1024


def on_disk_triple(tmp_path, shapes, seed, dtype=DType.BF16, anchor_shapes=None):
    """(base, ml, anchor) saved and loaded back, so their records read files.
    ``anchor_shapes`` widens chosen anchor tensors beyond the sources'."""
    rng = np.random.default_rng(seed)
    anchor_shapes = anchor_shapes or {}
    base = {n: rng.standard_normal(s, dtype=np.float32) for n, s in shapes.items()}
    loaded = []
    for role in ("base", "ml", "anchor"):
        records = []
        for name, values in base.items():
            if role != "base":
                values = values + np.float32(0.05) * rng.standard_normal(values.shape, dtype=np.float32)
            if role == "anchor" and name in anchor_shapes:
                wide = rng.standard_normal(anchor_shapes[name], dtype=np.float32)
                wide[tuple(slice(0, d) for d in values.shape)] = values
                values = wide
            records.append(TensorRecord.from_array(name, values, dtype=dtype))
        save_checkpoint(Checkpoint.from_records(records), tmp_path / role)
        loaded.append(load_checkpoint(tmp_path / role))
    return loaded


def test_kernel_memory_is_one_row_block(tmp_path):
    """Python-side peak of a dim3 merge of one bf16 tensor: a few MiB, and
    the same when the tensor has four times the rows."""
    peaks = []
    for rows in (1024, 4096):
        triple = on_disk_triple(tmp_path / f"in{rows}", {"w": (rows, 1024)}, seed=rows)
        tracemalloc.start()
        try:
            merge_checkpoint(*triple, MergeConfig(), tmp_path / f"out{rows}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 6 * MIB
    assert peaks[1] <= 1.05 * peaks[0] + 64 * 1024, [p / MIB for p in peaks]


def test_diagnose_memory_is_one_row_block(tmp_path):
    """Python-side peak of ``diagnose`` on one loaded bf16 tensor: under the
    merge's bound, and the same when the tensor has four times the rows."""
    peaks = []
    for rows in (1024, 4096):
        triple = on_disk_triple(tmp_path / f"in{rows}", {"model.layers.0.mlp.up_proj.weight": (rows, 1024)},
                                seed=rows)
        tracemalloc.start()
        try:
            diagnose(*triple)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 6 * MIB
    assert peaks[1] <= 1.05 * peaks[0] + 64 * 1024, [p / MIB for p in peaks]


def test_diagnose_rows_do_not_depend_on_block_size(tmp_path, monkeypatch):
    """Rows from row blocks of 1, 4 and 16 tiles, and from one block, are
    bit-identical: a 2D and a 1D bf16 tensor taller than 16 tiles."""
    rows = 16 * TILE_ROWS + 37
    shapes = {"model.layers.0.mlp.down_proj.weight": (rows, 24), "model.layers.0.input_layernorm.weight": (rows,)}
    triple = on_disk_triple(tmp_path, shapes, seed=12)
    whole = diagnose(*triple)
    for tiles in (1, 4, 16):
        monkeypatch.setattr(merge_module, "_block_rows", lambda cols: tiles * TILE_ROWS)
        assert diagnose(*triple) == whole, tiles


@pytest.mark.parametrize("cols", [24, 1000, 3000, 5000])
def test_default_row_blocks_are_whole_tiles(cols):
    """Every default row block starts on a tile boundary, so column sums add
    the same tiles in the same order as at any other block size, also where
    about ``_BLOCK_ELEMENTS`` values are not a whole number of tiles; and a
    block holds no more than that, or one tile where a tile holds more."""
    rows = 4 * merge_module._block_rows(cols) + 5
    blocks = merge_module.BlockBuffers().blocks(rows, cols)
    assert all(r0 % TILE_ROWS == 0 for r0, _ in blocks)
    assert [r1 for _, r1 in blocks[:-1]] == [r0 for r0, _ in blocks[1:]] and blocks[-1][1] == rows
    assert (blocks[0][1] - blocks[0][0]) * cols <= max(merge_module._BLOCK_ELEMENTS, TILE_ROWS * cols)


@pytest.mark.parametrize("tiles", [1, 3])
def test_small_blocks_splice_like_one_block(tmp_path, monkeypatch, tiles):
    """With several row blocks, the merged region and the anchor's extra rows
    and columns land where a single block puts them."""
    shapes = {"model.embed_tokens.weight": (300, 6), "model.norm.weight": (6,)}
    triple = on_disk_triple(tmp_path, shapes, seed=5, anchor_shapes={"model.embed_tokens.weight": (333, 8)})
    cfg = MergeConfig(shape_policy="anchor-overlap")
    whole, _ = merge_and_load(*triple, cfg)
    monkeypatch.setattr(merge_module, "_block_rows", lambda cols: tiles * TILE_ROWS)
    blocked, _ = merge_and_load(*triple, cfg)
    for name in whole.names():
        assert blocked[name].raw == whole[name].raw
    anchor = triple[2]["model.embed_tokens.weight"]
    out = blocked["model.embed_tokens.weight"]
    assert out.shape == anchor.shape
    np.testing.assert_array_equal(out.bits()[300:], anchor.bits()[300:])
    np.testing.assert_array_equal(out.bits()[:, 6:], anchor.bits()[:, 6:])


def test_writer_fills_blocks_in_any_order(tmp_path):
    rng = np.random.default_rng(4)
    records = [TensorRecord.from_array(n, rng.standard_normal((8, 4), dtype=np.float32)) for n in "abc"]
    ckpt = Checkpoint.from_records(records)
    save_checkpoint(ckpt, tmp_path / "saved", shard_limit=300)
    specs = [(r.name, r.dtype, r.shape) for r in records]
    with CheckpointWriter(specs, tmp_path / "filled", shard_limit=300) as out:
        for rec in reversed(records):
            for offset in (96, 0, 32, 64):
                out.write(rec.name, offset, rec.raw[offset:offset + 32])
        with pytest.raises(ValueError, match="overruns"):
            out.write("a", 120, rec.raw[:16])
    for saved in (tmp_path / "saved").iterdir():
        assert (tmp_path / "filled" / saved.name).read_bytes() == saved.read_bytes()


def file_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("shard_limit", [1 << 30, 300])
def test_save_onto_the_files_a_checkpoint_maps(tmp_path, shard_limit):
    """Saving a loaded checkpoint over its own files, directly or after a
    remap, rewrites the same bytes: the loaded inputs are never clobbered."""
    rng = np.random.default_rng(7)
    ckpt = Checkpoint.from_records(
        TensorRecord.from_array(n, rng.standard_normal((8, 4), dtype=np.float32)) for n in "abc")
    save_checkpoint(ckpt, tmp_path / "c", shard_limit=shard_limit)
    original = file_bytes(tmp_path / "c")
    save_checkpoint(load_checkpoint(tmp_path / "c"), tmp_path / "c", shard_limit=shard_limit)
    assert file_bytes(tmp_path / "c") == original
    renamed = remap_keys(load_checkpoint(tmp_path / "c"), [("", "x.")])
    save_checkpoint(renamed, tmp_path / "c", shard_limit=shard_limit)
    loaded = load_checkpoint(tmp_path / "c")
    assert loaded.names() == ["x.a", "x.b", "x.c"]
    for name in "abc":
        assert loaded[f"x.{name}"].raw == ckpt[name].raw


def test_merge_onto_the_anchors_own_file(tmp_path):
    triple = on_disk_triple(tmp_path, {"w": (96, 16), "v": (16,)}, seed=8)
    merge_checkpoint(*triple, MergeConfig(), tmp_path / "elsewhere")
    merge_checkpoint(*triple, MergeConfig(), tmp_path / "anchor")
    assert file_bytes(tmp_path / "anchor") == file_bytes(tmp_path / "elsewhere")


# the bf16 bits put into ml's last tensor, the merge, and the error it raises
MERGE_FAULTS = {
    "nan": (0x7FC0, MergeConfig(), "z: multilingual"),  # a bf16 NaN
    # bf16's largest finite value, which task arithmetic at lambda 2 doubles past float32
    "overflow": (0x7F7F, MergeConfig(method="task_arithmetic", baseline=BaselineParams(lam=2.0)),
                 "z: merged values are not finite in BF16"),
}


@pytest.mark.parametrize("threads, fault", [
    pytest.param(None, "nan", id="None"), pytest.param(2, "nan", id="2"),
    pytest.param(1, "overflow", id="overflow-1"), pytest.param(2, "overflow", id="overflow-2")])
def test_failed_merge_leaves_path_as_it_was(tmp_path, threads, fault):
    """A non-finite input in the last tensor, or a finite one whose merge
    overflows, fails the merge after the others are written: nothing appears
    at a new path, an old output is untouched, and no partial file is left
    behind."""
    bits, cfg, message = MERGE_FAULTS[fault]
    shapes = {"a": (64, 8), "b": (64, 8), "z": (64, 8)}
    base, ml, anchor = on_disk_triple(tmp_path, shapes, seed=9)
    bad = ml["z"].bits().copy()
    bad[40, 3] = bits
    ml = Checkpoint.from_records([*(ml[n] for n in "ab"), TensorRecord(
        name="z", dtype=DType.BF16, shape=(64, 8), raw=bad.tobytes())])
    with pytest.raises(NumericError, match=message):
        merge_checkpoint(base, ml, anchor, cfg, tmp_path / "out.safetensors", threads=threads)
    assert not (tmp_path / "out.safetensors").exists()
    before = file_bytes(tmp_path / "anchor")
    with pytest.raises(NumericError):
        merge_checkpoint(base, ml, anchor, cfg, tmp_path / "anchor", threads=threads)
    assert file_bytes(tmp_path / "anchor") == before
    assert not list(tmp_path.rglob("*.partial"))


def test_column_sums_do_not_depend_on_block_size():
    from dimerge.geometry import SCRATCH_ROWS, accumulate_column_sums

    rng = np.random.default_rng(6)
    base, ml, mm = (rng.standard_normal((1100, 7), dtype=np.float32) for _ in range(3))
    scratch = np.empty((SCRATCH_ROWS, 7))
    whole = np.zeros((5, 7))
    accumulate_column_sums(whole, base, ml, mm, scratch)
    for tiles in (1, 4, 16):
        rows = tiles * TILE_ROWS
        sums = np.zeros((5, 7))
        for r0 in range(0, 1100, rows):
            accumulate_column_sums(sums, base[r0:r0 + rows], ml[r0:r0 + rows], mm[r0:r0 + rows], scratch)
        np.testing.assert_array_equal(sums, whole)


FAULT_PROBE = """
import resource, sys
from dimerge.diagnostics import diagnose
from dimerge.merge import MergeConfig, merge_checkpoint
from dimerge.store import load_checkpoint

faults = []
for root in sys.argv[2:]:
    triple = [load_checkpoint(f"{root}/{role}") for role in ("base", "ml", "anchor")]
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    if sys.argv[1] == "diagnose":
        diagnose(*triple)
    else:
        merge_checkpoint(*triple, MergeConfig(method=sys.argv[1]), f"{root}/out")
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


def probe_faults(method, roots):
    """Minor faults of each merge (or, for method ``diagnose``, each
    ``diagnose``) of ``roots``, in order, in one fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(dimerge.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", FAULT_PROBE, method, *roots], env=env,
                            capture_output=True, text=True, check=True)
    return [int(f) for f in result.stdout.split()]


def short_and_tall(tmp_path):
    """Roots of a loaded bf16 2048 x 1024 triple and of one four times as tall."""
    for rows in (2048, 8192):
        on_disk_triple(tmp_path / str(rows), {"w": (rows, 1024)}, seed=rows)
    return [str(tmp_path / str(rows)) for rows in (2048, 8192)]


def test_streaming_faults_do_not_grow_with_blocks(tmp_path):
    """Minor page faults of a fresh process merging a loaded bf16 tensor,
    then one with four times the rows (and row blocks): the row-block
    buffers are reused, so the taller tensor adds a small fixed number of
    faults, not a few pages per block for fresh temporaries. A fresh process,
    because a long-lived one keeps a large heap that hides the churn."""
    short, tall = probe_faults("dim3", short_and_tall(tmp_path))
    assert tall - short < 3000, (short, tall)


def test_diagnose_faults_do_not_grow_with_blocks(tmp_path):
    """The same probe for ``diagnose``, whose decode slots and float64 tile
    scratch live as long as the call: four times the rows add a small fixed
    number of faults, not fresh pages for every block."""
    short, tall = probe_faults("diagnose", short_and_tall(tmp_path))
    assert tall - short < 3000, (short, tall)


PEAK_PROBE = """
import sys
from dimerge.diagnostics import diagnose
from dimerge.merge import MergeConfig, merge_checkpoint
from dimerge.scope import ScopeFilter
from dimerge.store import load_checkpoint, save_checkpoint

def own_peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

method, _, scope = sys.argv[1].partition(":")   # a merge may name its scope preset: "dim3:empty"
peaks = []
for root in sys.argv[2:]:
    triple = [load_checkpoint(f"{root}/{role}") for role in ("base", "ml", "anchor")]
    if method == "diagnose":
        diagnose(*triple)
    elif method == "save":
        save_checkpoint(triple[2], f"{root}/out.save")
    else:
        cfg = MergeConfig(method=method, scope=ScopeFilter.from_dict(scope or "full"))
        merge_checkpoint(*triple, cfg, f"{root}/out.{method}")
    peaks.append(own_peak_kib())
print(*peaks)
"""

needs_vmhwm = pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs the process's own VmHWM")


def probe_peaks(method, roots):
    """The peak memory of one fresh process after merging each of ``roots``
    in turn (or, for method ``diagnose``, measuring it, and for ``save``
    saving its anchor). The process reads its own high-water mark, because
    the one ``getrusage`` gives a child starts from its parent's."""
    env = {**os.environ, "PYTHONPATH": str(Path(dimerge.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", PEAK_PROBE, method, *roots], env=env,
                            capture_output=True, text=True, check=True)
    return [int(kib) for kib in result.stdout.split()]


def probe_peaks_kib(tmp_path, method):
    """:func:`probe_peaks` of a loaded bf16 2048-row tensor, then of one
    four times as tall."""
    return probe_peaks(method, short_and_tall(tmp_path))


@needs_vmhwm
@pytest.mark.parametrize("method", ["task_arithmetic", "dare"])
def test_baselines_without_a_cut_peak_does_not_grow_with_height(tmp_path, method):
    """A baseline that needs no cut decodes, merges and writes each block in
    the same buffers, so the taller tensor raises the peak by a few MiB,
    not by tensor-sized arrays (24 MiB each here)."""
    short, tall = probe_peaks_kib(tmp_path, method)
    assert tall - short < 8 * 1024, (short, tall)


@needs_vmhwm
@pytest.mark.parametrize("method, bound_mib", [("dim3", 8), ("diagnose", 8), ("ties", 56)])
def test_pass_one_keeps_one_row_block_mapped(tmp_path, method, bound_mib):
    """Pass 1 reads every role's rows one block at a time into the worker's
    buffers, so no role's whole tensor is held until pass 2 (12 MiB per
    bf16 role for the extra 6144 rows here). dim3
    and ``diagnose`` then grow by a few MiB, as a baseline without a cut
    does; TIES by its two tensor-sized float32 score arrays (24 MiB each)
    and those few MiB."""
    short, tall = probe_peaks_kib(tmp_path, method)
    assert tall - short < bound_mib * 1024, (short, tall)


def tall_pass_through(tmp_path, scope):
    """Roots of loaded bf16 triples that merge a one-tile tensor and pass
    through a 1024-wide one of 2048 rows, then of 16384: the anchor's alone,
    or, under scope ``empty``, one every role holds."""
    roots = []
    for rows in (2048, 16384):
        root = tmp_path / str(rows)
        triple = on_disk_triple(root, {"w": (TILE_ROWS, 1024)}, seed=rows)
        tall = TensorRecord.from_array("vision.w", np.ones((rows, 1024), np.float32), DType.BF16)
        for role, ckpt in zip(("base", "ml", "anchor"), triple):
            if role == "anchor" or scope == "empty":
                save_checkpoint(Checkpoint.from_records([*ckpt.tensors.values(), tall]), root / role)
        roots.append(str(root))
    return roots


@needs_vmhwm
@pytest.mark.parametrize("scope", ["full", "empty"])
def test_pass_through_keeps_one_row_block_mapped(tmp_path, scope):
    """A tensor passed through, anchor-only or out of scope, is copied by
    the merge's row-block loop, which reads each block into a reused
    buffer, so eight times the rows (28 MiB more of bf16 here) raise the
    peak by a few MiB, not by the tensor."""
    short, tall = probe_peaks(f"dim3:{scope}", tall_pass_through(tmp_path, scope))
    assert tall - short < 8 * 1024, (short, tall)


@needs_vmhwm
def test_save_keeps_one_tensor_mapped(tmp_path):
    """Saving a loaded checkpoint holds no record once it is written, so
    eight 4 MiB bf16 tensors peak as two do, not 24 MiB higher."""
    roots = []
    for count in (2, 8):
        on_disk_triple(tmp_path / str(count), {f"w{i}": (1024, 2048) for i in range(count)}, seed=count)
        roots.append(str(tmp_path / str(count)))
    few, many = probe_peaks("save", roots)
    assert many - few < 8 * 1024, (few, many)


@needs_vmhwm
def test_save_copies_a_loaded_tensor_by_row_blocks(tmp_path):
    """Saving a loaded checkpoint copies each payload by row blocks through
    one reused buffer, so an anchor holding one 64 MiB bf16 tensor peaks a
    few MiB above one holding a single 16 KiB row, not by the tensor read
    whole (and copied once more)."""
    roots = []
    for rows in (1, 4096):
        on_disk_triple(tmp_path / str(rows), {"w": (1, 8)}, seed=rows, anchor_shapes={"w": (rows, 8192)})
        roots.append(str(tmp_path / str(rows)))
    small, large = probe_peaks("save", roots)
    assert large - small < 16 * 1024, (small, large)


@pytest.mark.parametrize("method", ["ties", "dare", "task_arithmetic"])
def test_baseline_faults_do_not_grow_with_tensors(tmp_path, method):
    """Minor page faults of a fresh process running a baseline merge of two
    loaded F16 tensors, then of eight of the same shape: the residuals,
    scores, DARE's random bits and the row-block scratch live in the
    worker's reused buffers, so six more tensors add a small fixed number of
    faults, not fresh tensor-sized or block-sized temporaries for each."""
    roots = []
    for count in (2, 8):
        shapes = {f"w{i}": (512, 1024) for i in range(count)}
        on_disk_triple(tmp_path / str(count), shapes, seed=count, dtype=DType.F16)
        roots.append(str(tmp_path / str(count)))
    few, many = probe_faults(method, roots)
    assert many - few < 3000, (few, many)


def record_buffers(monkeypatch):
    """Wrap the kernels that take row-block buffers (the column sums, the
    top-k cut's ``select``, DARE's draw and the encoder) to record, per
    thread, the array that owns the memory of each array handed to them. The
    owners are kept alive, so a fresh allocation can never reuse a recorded
    one's memory."""
    owners = {}

    def record(*arrays):
        seen = owners.setdefault(threading.get_ident(), {})
        for array in arrays:
            while isinstance(array, np.ndarray) and isinstance(array.base, np.ndarray):
                array = array.base
            if isinstance(array, np.ndarray):
                seen[id(array)] = array

    def recording(kernel, skip):
        def wrapped(*args, **kwargs):
            record(*args[skip:], *kwargs.values())
            return kernel(*args, **kwargs)
        return wrapped

    # the column sums' first argument is the sums, one small array per tensor
    for module, name, skip in ((merge_module, "accumulate_column_sums", 1),
                               (diagnostics_module, "accumulate_residual_sums", 1),
                               (merge_module, "encode_bits", 0), (baselines_module.TopKCut, "select", 0),
                               (baselines_module, "_draw_bits", 0)):
        monkeypatch.setattr(module, name, recording(getattr(module, name), skip))
    return owners


@pytest.mark.parametrize("method", ["dim3", "diagnose", "ties", "breadcrumbs", "dare", "task_arithmetic"])
@pytest.mark.parametrize("threads", [1, 2])
def test_kernels_reuse_a_few_buffers_per_worker(tmp_path, monkeypatch, method, threads):
    """Every block of four bf16 tensors of one shape, cut into one row block
    each and then into five, reaches the kernels in the same few buffers per
    worker: the column sums' decoded blocks and float64 scratch, the cut's
    scores and flags, DARE's bits and their scratch, the encoder's output
    and rounding scratch. A fresh array per block, even one the allocator
    serves from the memory just freed, adds a buffer per block. Under dim3,
    four 1D tensors as tall follow, through the same compose and buffers:
    they come after the 2D ones, whose larger blocks have grown every
    buffer, as a buffer grows once to the largest block it has held."""
    shapes = {f"w{i}": (5 * TILE_ROWS, 16) for i in range(4)}
    if method == "dim3":
        shapes.update({f"w{i}": (5 * TILE_ROWS,) for i in range(4, 8)})
    triple = on_disk_triple(tmp_path, shapes, seed=15)
    counts = []
    for tiles in (5, 1):
        monkeypatch.setattr(merge_module, "_block_rows", lambda cols: tiles * TILE_ROWS)
        owners = record_buffers(monkeypatch)
        if method == "diagnose":
            diagnose(*triple)
        else:
            merge_checkpoint(*triple, MergeConfig(method=method), tmp_path / f"out{tiles}", threads=threads)
        counts.append(max(len(seen) for seen in owners.values()))
        monkeypatch.undo()
    assert counts[0] == counts[1] <= 6, counts


@pytest.mark.parametrize("dtype", [DType.F16, DType.F32, DType.BF16])
@pytest.mark.parametrize("output_dtype", ["match_anchor", "f32"])
def test_reused_buffers_leave_no_stale_values(tmp_path, monkeypatch, dtype, output_dtype):
    """2D tensors that alternate wide and narrow, tall and short, cut into
    row blocks with a partial last block, so that many blocks are smaller
    than the buffers an earlier tensor grew; a 1D tensor of three blocks;
    one 2D and one 1D tensor under anchor-overlap. Merged by one, two and
    eight workers, in name order and reversed, every tensor equals
    ``merge_tensor`` on its triple alone in one block."""
    shapes = {"a.wide_tall": (300, 24), "b.narrow_short": (70, 5), "c.wide_short": (90, 32),
              "d.narrow_tall": (333, 3), "e.overlap": (150, 20), "f.vector": (40,), "g.narrow": (65, 2),
              "h.long_vector": (5000,), "i.vector_overlap": (3000,)}
    base, ml, anchor = on_disk_triple(tmp_path, shapes, seed=11, dtype=dtype,
                                      anchor_shapes={"e.overlap": (230, 24), "i.vector_overlap": (4500,)})
    cfg = MergeConfig(shape_policy="anchor-overlap", output_dtype=output_dtype)
    triples, _ = align_triple(base, ml, anchor, shape_policy="anchor-overlap")
    alone = {t.name: merge_tensor(t, cfg).raw for t in triples}
    monkeypatch.setattr(merge_module, "_BLOCK_ELEMENTS", 32 * TILE_ROWS)
    reverse = Checkpoint.from_records(reversed(list(anchor.tensors.values())))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers' blocks finely
    try:
        for order in (anchor, reverse):
            for threads in (1, 2, 8):
                merged, _ = merge_and_load(base, ml, order, cfg, threads=threads)
                assert merged.names() == order.names()
                for name, raw in alone.items():
                    assert merged[name].raw == raw, (name, threads)
    finally:
        sys.setswitchinterval(interval)


def expected_baseline_values(triple, cfg):
    """One tensor's merged region in float32 from the naive references in
    ``reference.py``, flat."""
    base, ml, mm = aligned_f32(triple)
    d_ml, d_mm = ml - base, mm - base
    p = cfg.baseline
    if cfg.method == "ties":
        return reference.ties(base, d_ml, d_mm, p.ties_density, p.lam)
    if cfg.method == "dare":
        d_ml = reference.dare(d_ml, p.dare_drop_p, cfg.seed, "ml:" + triple.name)
        d_mm = reference.dare(d_mm, p.dare_drop_p, cfg.seed, "mm:" + triple.name)
    elif cfg.method == "breadcrumbs":
        d_ml, d_mm = (reference.breadcrumbs(d, p.breadcrumbs_beta, p.breadcrumbs_gamma) for d in (d_ml, d_mm))
    return reference.task_arithmetic(base, d_ml, d_mm, p.lam)


def expected_baseline_bits(triple, cfg):
    """The anchor-shaped output bits of one tensor from the naive references,
    encoded in the output dtype over the anchor's own."""
    values = expected_baseline_values(triple, cfg)
    anchor = triple.mm
    out_dtype = anchor.dtype if cfg.output_dtype == "match_anchor" else DType.F32
    bits = recode_bits(anchor.bits(), anchor.dtype, out_dtype)
    bits[tuple(slice(0, d) for d in triple.shape)] = encode_bits(values.reshape(triple.shape), out_dtype)
    return bits.tobytes()


def tie_heavy_triple(tmp_path, dtype):
    """Mapped (base, ml, anchor) of one (200, 4) tensor whose residuals are
    small integers, so every top-k threshold has ties in every row block."""
    rng = np.random.default_rng(13)
    base = rng.integers(-8, 8, (200, 4)).astype(np.float32)
    values = {"base": base, "ml": base + rng.integers(-2, 3, base.shape), "anchor": base + rng.integers(-3, 4, base.shape)}
    for role, array in values.items():
        save_checkpoint(Checkpoint.from_records([TensorRecord.from_array("t.ties", array.astype(np.float32), dtype)]),
                        tmp_path / role)
    return [load_checkpoint(tmp_path / role) for role in values]


@pytest.mark.parametrize("method", ["task_arithmetic", "dare", "ties", "breadcrumbs"])
@pytest.mark.parametrize("dtype", [DType.F16, DType.BF16, DType.F32])
@pytest.mark.parametrize("output_dtype", ["match_anchor", "f32"])
def test_baselines_do_not_depend_on_blocks_or_workers(tmp_path, monkeypatch, method, dtype, output_dtype):
    """Each baseline through ``merge_checkpoint`` in row blocks of 1, 4 and
    16 tiles, by 1, 2 and 8 workers: every tensor equals the naive
    references' result. The tensors span more than 16 tiles, overlap the
    anchor in rows and columns, include 1D tensors (one longer than 16
    tiles, one overlapping a longer anchor), and one tensor's threshold ties
    fall in every block, so the admitted ties carry across block
    boundaries."""
    shapes = {"a.tall": (1100, 3), "e.overlap": (150, 20), "f.vector": (70,), "h.long_vector": (5000,),
              "i.vector_overlap": (3000,)}
    base, ml, anchor = on_disk_triple(tmp_path / "normal", shapes, seed=14, dtype=dtype,
                                      anchor_shapes={"e.overlap": (230, 24), "i.vector_overlap": (4500,)})
    ties = tie_heavy_triple(tmp_path / "ties", dtype)
    base, ml, anchor = (Checkpoint.from_records([*a.tensors.values(), *b.tensors.values()])
                        for a, b in zip((base, ml, anchor), ties))
    cfg = MergeConfig(method=method, shape_policy="anchor-overlap", output_dtype=output_dtype, seed=3)
    triples, _ = align_triple(base, ml, anchor, shape_policy="anchor-overlap")
    expected = {t.name: expected_baseline_bits(t, cfg) for t in triples}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the workers' blocks finely
    try:
        for tiles in (1, 4, 16):
            monkeypatch.setattr(merge_module, "_block_rows", lambda cols: tiles * TILE_ROWS)
            for threads in (1, 2, 8):
                merged, _ = merge_and_load(base, ml, anchor, cfg, threads=threads)
                for name, raw in expected.items():
                    assert merged[name].raw == raw, (name, tiles, threads)
    finally:
        sys.setswitchinterval(interval)
