"""Output checks for merge and diagnose runs.

Each check returns a list of problems; an empty list means the output passed.
Checks read outputs with the benchmark's own reader and compare against the
generated inputs and the float64 oracle, never against the measured package.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import oracle
from tensorfile import Checkpoint, bits_view, nonfinite_count, to_f64
from workloads import ANCHOR_PREFIX, Workload

DIAGNOSE_RTOL = 1e-6
DIAGNOSE_ATOL = 1e-9


def remapped_anchor(anchor: Checkpoint) -> dict[str, str]:
    """Output name -> anchor name under the llama remap preset."""
    return {(n[len(ANCHOR_PREFIX):] if n.startswith(ANCHOR_PREFIX) else n): n for n in anchor.names()}


def merged_names(wl: Workload) -> set[str]:
    """Every workload merges at full scope: the whole shared backbone."""
    return {n for n, _, _ in wl.inputs.backbone()}


def check_merge(wl: Workload, inputs: Path, out_path: Path, oracle_names=None) -> list[str]:
    problems: list[str] = []
    try:
        out = Checkpoint(out_path)
    except (OSError, ValueError, KeyError) as exc:
        return [f"output unreadable: {exc}"]
    anchor = Checkpoint(inputs / "anchor")
    names = remapped_anchor(anchor)
    if sorted(out.names()) != sorted(names):
        missing = sorted(set(names) - set(out.names()))[:3]
        extra = sorted(set(out.names()) - set(names))[:3]
        return [f"tensor names differ from the anchor's: missing {missing}, extra {extra}"]

    merged = merged_names(wl)
    for name, anchor_name in sorted(names.items()):
        e_out, e_anc = out.entry(name), anchor.entry(anchor_name)
        if e_out["dtype"] != e_anc["dtype"] or e_out["shape"] != e_anc["shape"]:
            problems.append(f"{name}: {e_out['dtype']}{e_out['shape']} != anchor {e_anc['dtype']}{e_anc['shape']}")
            continue
        raw = out.read(name)
        if nonfinite_count(raw, e_out["dtype"]):
            problems.append(f"{name}: non-finite values")
        anchor_raw = anchor.read(anchor_name)
        if name not in merged:
            if raw != anchor_raw:
                problems.append(f"{name}: pass-through tensor differs from the anchor")
            continue
        if raw == anchor_raw:
            problems.append(f"{name}: in-scope tensor equals the anchor bit for bit")
        if name in wl.passthrough:
            rows = wl.inputs.vocab
            got = bits_view(raw, e_out["dtype"], e_out["shape"])[rows:]
            want = bits_view(anchor_raw, e_anc["dtype"], e_anc["shape"])[rows:]
            if not np.array_equal(got, want):
                problems.append(f"{name}: anchor rows outside the merged block changed")

    for name in wl.oracle if oracle_names is None else oracle_names:
        problems += check_oracle(wl, inputs, out, name)
    return problems


def check_report(path: Path, wl: Workload) -> list[str]:
    n_merged = len(merged_names(wl))
    n_pass = len(wl.inputs.backbone()) + len(wl.inputs.anchor_only()) - n_merged
    try:
        summary = json.loads(path.read_text())["summary"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"report unreadable: {exc}"]
    if summary.get("merged_count") != n_merged or summary.get("pass_through_count") != n_pass:
        return [f"report counts {summary.get('merged_count')}/{summary.get('pass_through_count')}, expected {n_merged}/{n_pass}"]
    return []


def reference_for(wl: Workload, inputs: Path, name: str) -> tuple[np.ndarray, np.ndarray, str, tuple]:
    """(float64 reference, tolerance, storage dtype, merged region) for one tensor."""
    base = Checkpoint(inputs / "base").f64(name)
    ml = Checkpoint(inputs / "multilingual").f64(name)
    anchor = Checkpoint(inputs / "anchor")
    mm_full = anchor.f64(ANCHOR_PREFIX + name)
    region = tuple(slice(0, d) for d in base.shape)
    mm = mm_full[region]
    ref, rank_spread = oracle.merged_reference(wl.merge.get("method", "dim3"), base, ml, mm)
    dtype = anchor.entry(ANCHOR_PREFIX + name)["dtype"]
    return ref, oracle.tolerance(ref, rank_spread, base, ml, mm, dtype), dtype, region


def check_oracle(wl: Workload, inputs: Path, out: Checkpoint, name: str) -> list[str]:
    ref, tol, dtype, region = reference_for(wl, inputs, name)
    e = out.entry(name)
    got = to_f64(out.read(name), e["dtype"], e["shape"])[region]
    bad = oracle.outside_tolerance(got, ref, tol)
    if bad:
        err = float(np.max(np.abs(got - ref) - tol))
        return [f"{name}: {bad} elements outside one {dtype} ulp of the float64 reference (worst excess {err:.3g})"]
    return []


# ---------------------------------------------------------------------------
# diagnose
# ---------------------------------------------------------------------------


def diagnose_reference(inputs: Path) -> dict[tuple[int, str], dict]:
    base = Checkpoint(inputs / "base")
    ml = Checkpoint(inputs / "multilingual")
    anchor = Checkpoint(inputs / "anchor")
    terms = {name: oracle.tensor_terms(base.f64(name), ml.f64(name), anchor.f64(ANCHOR_PREFIX + name)) for name in base.names()}
    return oracle.diagnose_rows(terms)


def _close(got, want) -> bool:
    if want is None or got is None:
        return got is None and want is None
    return math.isfinite(got) and abs(got - want) <= DIAGNOSE_ATOL + DIAGNOSE_RTOL * abs(want)


def check_diagnose(json_path: Path, csv_path: Path, reference: dict) -> list[str]:
    try:
        rows = json.loads(json_path.read_text())
        with open(csv_path, newline="") as fh:
            csv_rows = list(csv.DictReader(fh))
    except (OSError, ValueError) as exc:
        return [f"diagnose output unreadable: {exc}"]
    problems = []
    got = {(r["layer"], r["module"]): r for r in rows}
    if sorted(got) != sorted(reference):
        return [f"diagnose groups {sorted(got)[:4]}... differ from {sorted(reference)[:4]}..."]
    for key, want in reference.items():
        for field, value in want.items():
            if not _close(got[key][field], value):
                problems.append(f"diagnose row {key} {field}: {got[key][field]} vs float64 {value}")
    if len(csv_rows) != len(rows):
        problems.append(f"CSV has {len(csv_rows)} rows, JSON {len(rows)}")
    for c, r in zip(csv_rows, rows):
        for field in ("norm_ml", "norm_mm", "dirdev_ml", "dirdev_mm", "cross_cos"):
            want, value = r[field], float(c[field])
            # the CSV carries 9 significant digits
            same = math.isnan(value) if want is None else abs(value - want) <= 1e-8 * abs(want)
            if not same:
                problems.append(f"CSV row {c['layer']},{c['module']} {field} {c[field]} != JSON {want}")
    return problems
