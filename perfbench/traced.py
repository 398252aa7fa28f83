"""Run one ``dimerge`` command with spans around the calls into each layer.

Usage: python3 traced.py TRACE_JSON -- <dimerge arguments>

Each wrap target is a module-level name (or class attribute) at the place
its caller looks it up, so replacing it routes that call through a span.
Spans are kept in memory and written to TRACE_JSON when the command ends.
A target that no longer exists is listed as absent, not treated as an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import threading
import time

# (module, attribute path, span name, layer, counter hook)
TARGETS = (
    ("dimerge.cli", "load_checkpoint", "store.load", "store", "rss"),
    ("dimerge.cli", "remap_keys", "store.remap", "store", None),
    ("dimerge.cli", "save_checkpoint", "store.save", "store", "rss"),
    ("dimerge.store", "read_tensor_file", "store.read", "store", "file_in"),
    ("dimerge.store", "write_tensor_file", "store.write", "store", "file_out"),
    ("dimerge.cli", "merge_checkpoint", "merge.merge_checkpoint", "merge", "rss"),
    ("dimerge.merge", "align_triple", "align.align_triple", "align", "align"),
    ("dimerge.diagnostics", "align_triple", "align.align_triple", "align", "align"),
    ("dimerge.merge", "decompose", "geometry.decompose", "geometry", "arrays"),
    ("dimerge.merge", "magnitude_deviation", "geometry.deviation", "geometry", "arrays"),
    ("dimerge.merge", "direction_deviation", "geometry.deviation", "geometry", "arrays"),
    ("dimerge.geometry", "decompose", "geometry.decompose", "geometry", "arrays"),
    ("dimerge.geometry", "direction_deviation", "geometry.deviation", "geometry", "arrays"),
    ("dimerge.geometry", "cross_alignment", "geometry.deviation", "geometry", "arrays"),
    ("dimerge.diagnostics", "tensor_stats", "geometry.tensor_stats", "geometry", "arrays"),
    ("dimerge.merge", "estimate_salience", "salience.estimate", "salience", None),
    ("dimerge.merge", "aggregate_branches", "salience.aggregate", "salience", None),
    ("dimerge.merge", "elementwise_salience", "salience.elementwise", "salience", None),
    ("dimerge.merge", "merge_baseline_values", "baselines.merge_values", "baselines", "params"),
    ("dimerge.merge", "f32_to_bf16_bits", "records.encode", "records", None),
    ("dimerge.records", "f32_to_bf16_bits", "records.encode", "records", None),
    ("dimerge.records", "TensorRecord.from_array", "records.encode", "records", None),
    ("dimerge.records", "TensorRecord.to_f32", "records.decode", "records", None),
    ("dimerge.records", "TensorRecord.to_f64", "records.decode", "records", None),
    ("dimerge.cli", "diagnose", "diagnostics.diagnose", "diagnostics", "rss"),
    ("dimerge.cli", "export_csv", "diagnostics.export", "diagnostics", None),
    ("dimerge.cli", "export_json", "diagnostics.export", "diagnostics", None),
)


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _array_bytes(args) -> int:
    """Bytes of the float arrays handed to a geometry call, from their sizes."""
    total = 0
    for a in args:
        if hasattr(a, "nbytes") and hasattr(a, "dtype"):
            total += int(a.nbytes)
        elif hasattr(a, "directions"):
            total += int(a.directions.nbytes)
        elif all(hasattr(a, r) for r in ("base", "ml", "mm")):
            total += sum(4 * getattr(a, r).num_elements for r in ("base", "ml", "mm"))
    return total


def _count_before(hook, args):
    if hook == "rss":
        return _maxrss_kib()
    return None


def _count_after(hook, args, result, before) -> dict:
    if hook == "rss":
        return {"rss_growth_kib": _maxrss_kib() - before}
    if hook == "file_in":
        return {"bytes": os.path.getsize(args[0])}
    if hook == "file_out":
        return {"bytes": os.path.getsize(args[0])}
    if hook == "arrays":
        return {"bytes": _array_bytes(args)}
    if hook == "params":
        return {"params": int(args[1].size)}
    if hook == "align":
        try:
            triples, report = result
            return {"aligned": len(triples), "pass_through": len(report.pass_through)}
        except (TypeError, ValueError, AttributeError):
            return {}
    return {}


class Tracer:
    """Spans as (id, name, layer, start, end, parent, thread, counters)."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, layer: str) -> list:
        stack = self._stack()
        with self._lock:
            span = [len(self.spans), name, layer, time.perf_counter(), None, stack[-1] if stack else None,
                    threading.get_ident(), {}]
            self.spans.append(span)
        stack.append(span[0])
        return span

    def close(self, span: list, counters: dict) -> None:
        span[4] = time.perf_counter()
        span[7] = counters
        self._stack().pop()

    def wrap(self, fn, name: str, layer: str, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name, layer)
            before = _count_before(hook, args)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(span, _count_after(hook, args, result, before))

        return wrapper


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return the ones that do not."""
    absent = []
    for module_name, attr_path, name, layer, hook in targets:
        label = f"{module_name}.{attr_path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            absent.append(label)
            continue
        *parents, attr = attr_path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            absent.append(label)
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(raw.__func__, name, layer, hook)))
        else:
            setattr(owner, attr, tracer.wrap(raw, name, layer, hook))
    return absent


def main(argv: list[str]) -> int:
    trace_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE_JSON -- <dimerge arguments>")
    tracer = Tracer()
    span = tracer.open("cli.import", "cli")
    rss0 = _maxrss_kib()
    cli = importlib.import_module("dimerge.cli")
    tracer.close(span, {"rss_growth_kib": _maxrss_kib() - rss0})
    absent = install(tracer)
    span = tracer.open("cli.main", "cli")
    try:
        code = cli.main(cli_args)
    finally:
        tracer.close(span, {})
        with open(trace_path, "w") as fh:
            json.dump({"spans": tracer.spans, "absent": absent, "maxrss_kib": _maxrss_kib(),
                       "dimerge": cli.__file__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
