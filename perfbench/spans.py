"""Per-layer metrics from the spans a traced run wrote.

A span is (id, name, layer, start, end, parent, thread, counters). A span's
self time is its duration minus the part of it covered by its child spans;
each layer's self time sums its spans' self times, so the layers' self times
plus the unattributed remainder add up to the traced process's wall time.
"""

from __future__ import annotations

import math
from collections import defaultdict

from oracle import label_of

LAYERS = ("cli", "store", "records", "align", "geometry", "salience", "merge", "baselines", "diagnostics")
MODULE_GROUPS = {"attn": "attn", "mlp": "mlp", "embed": "embed_head", "head": "embed_head"}


def _union(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


class Spans:
    def __init__(self, rows: list[list]):
        self.rows = rows
        self.by_id = {r[0]: r for r in rows}
        self.children = defaultdict(list)
        for r in rows:
            if r[5] is not None:
                self.children[r[5]].append(r)

    def self_time(self, r) -> float:
        kids = [(max(c[3], r[3]), min(c[4], r[4])) for c in self.children[r[0]]]
        return (r[4] - r[3]) - _union([k for k in kids if k[1] > k[0]])

    def _has_ancestor(self, r, names: tuple[str, ...]) -> bool:
        p = r[5]
        while p is not None:
            parent = self.by_id[p]
            if parent[1] in names:
                return True
            p = parent[5]
        return False

    def outermost(self, *names: str) -> list[list]:
        """Spans named one of ``names`` and not nested inside another such span."""
        return [r for r in self.rows if r[1] in names and not self._has_ancestor(r, names)]

    def seconds(self, *names: str) -> float:
        return sum(r[4] - r[3] for r in self.outermost(*names))

    def counter(self, key: str, *names: str) -> float:
        return sum(r[7].get(key, 0) for r in self.outermost(*names))

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for r in self.rows:
            out[r[2]] = out.get(r[2], 0.0) + self.self_time(r)
        return out


def module_throughput(report: dict, wl) -> dict[str, float]:
    """Merged Mparams per second of merge time, by module type, from the
    per-tensor seconds in an untraced merge report."""
    shapes = {name: shape for name, shape, _ in wl.inputs.backbone()}
    params, secs = defaultdict(float), defaultdict(float)
    for t in report.get("tensors", []):
        if t.get("action") != "merged" or t["name"] not in shapes:
            continue
        shape = shapes[t["name"]]
        group = "vector" if len(shape) == 1 else MODULE_GROUPS.get(label_of(t["name"]).split(".")[0], "other")
        params[group] += math.prod(shape)
        secs[group] += t.get("seconds", 0.0)
    return {g: (params[g] / secs[g] / 1e6 if secs[g] > 0 else 0.0) for g in ("attn", "mlp", "embed_head", "vector")}


def per_layer(trace: dict, traced_wall: float, wall_1: float, wall_mt: float, report: dict, wl) -> tuple[dict, dict]:
    sp = Spans(trace["spans"])
    layer_self = sp.layer_self()
    attributed = sum(layer_self.values())
    read_s = sp.seconds("store.read")
    write_s = sp.seconds("store.write")
    base_s = sp.seconds("baselines.merge_values")
    thr = module_throughput(report, wl)
    kib = 1.0 / 1024.0

    m = {
        "cli.import_s": (sp.seconds("cli.import"), "s"),
        "store.read_s": (read_s, "s"),
        "store.read_calls": (len(sp.outermost("store.read")), "count"),
        "store.read_mb_s": (sp.counter("bytes", "store.read") / 1e6 / read_s if read_s else 0.0, "MB/s"),
        "store.remap_s": (sp.seconds("store.remap"), "s"),
        "store.write_s": (write_s, "s"),
        "store.write_mb_s": (sp.counter("bytes", "store.write") / 1e6 / write_s if write_s else 0.0, "MB/s"),
        "store.load_rss_mb": (sp.counter("rss_growth_kib", "store.load") * kib, "MiB"),
        "store.write_rss_mb": (sp.counter("rss_growth_kib", "store.save") * kib, "MiB"),
        "records.decode_s": (sp.seconds("records.decode"), "s"),
        "records.decode_calls": (len(sp.outermost("records.decode")), "count"),
        "records.encode_s": (sp.seconds("records.encode"), "s"),
        "records.encode_calls": (len(sp.outermost("records.encode")), "count"),
        "align.s": (sp.seconds("align.align_triple"), "s"),
        "align.aligned": (sp.counter("aligned", "align.align_triple"), "count"),
        "align.pass_through": (sp.counter("pass_through", "align.align_triple"), "count"),
        "geometry.decompose_s": (sp.seconds("geometry.decompose"), "s"),
        "geometry.decompose_calls": (len(sp.outermost("geometry.decompose")), "count"),
        "geometry.deviation_s": (sp.seconds("geometry.deviation"), "s"),
        "geometry.bytes_computed": (
            sp.counter("bytes", "geometry.decompose", "geometry.deviation", "geometry.tensor_stats"), "B"),
        "geometry.tensor_stats_s": (sp.seconds("geometry.tensor_stats"), "s"),
        "salience.s": (sp.seconds("salience.estimate", "salience.aggregate", "salience.elementwise"), "s"),
        "salience.calls": (len(sp.outermost("salience.estimate", "salience.aggregate", "salience.elementwise")), "count"),
        "merge.s": (sp.seconds("merge.merge_checkpoint"), "s"),
        "merge.speedup_mt": (wall_1 / wall_mt, "ratio"),
        "merge.rss_growth_mb": (sp.counter("rss_growth_kib", "merge.merge_checkpoint") * kib, "MiB"),
        "merge.attn_mparams_s": (thr["attn"], "Mparams/s"),
        "merge.mlp_mparams_s": (thr["mlp"], "Mparams/s"),
        "merge.embed_head_mparams_s": (thr["embed_head"], "Mparams/s"),
        "merge.vector_mparams_s": (thr["vector"], "Mparams/s"),
        "baselines.s": (base_s, "s"),
        "baselines.calls": (len(sp.outermost("baselines.merge_values")), "count"),
        "baselines.mparams_s": (sp.counter("params", "baselines.merge_values") / 1e6 / base_s if base_s else 0.0, "Mparams/s"),
        "diagnostics.s": (sp.seconds("diagnostics.diagnose", "diagnostics.export"), "s"),
        "diagnostics.rss_growth_mb": (sp.counter("rss_growth_kib", "diagnostics.diagnose") * kib, "MiB"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.unattributed_s": (traced_wall - attributed, "s"),
        "trace.overhead_s": (traced_wall - wall_1, "s"),
        "trace.spans": (len(sp.rows), "count"),
        "trace.absent_targets": (len(trace["absent"]), "count"),
    })
    metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}
    lines = [
        f"trace accounting: layer self times {attributed:.4f} s + unattributed {traced_wall - attributed:.4f} s"
        f" = traced wall {traced_wall:.4f} s",
        "absent wrap targets: " + (", ".join(trace["absent"]) or "none"),
    ]
    return metrics, {"lines": lines, "absent": trace["absent"], "layer_self_s": layer_self}
