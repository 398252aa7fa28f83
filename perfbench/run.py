"""dimerge benchmark: time merge/diagnose processes as a user runs them.

Usage (from the repository root):

    python3 perfbench/run.py --workload dim3-small --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Inputs are generated from ``(workload, seed)`` and cached under
``perfbench/.work``; generation is never inside a timed region. With
``--trace 0`` the benchmark times rounds of (command at 1 thread, command at
every available core) filling about ``--seconds``, plus three set-up probes,
and reports medians of the end-to-end metrics. With ``--trace 1`` it runs
the command untraced at 1 thread and at every core, once at 1 thread with
spans around each layer's calls, and once more untraced at 1 thread, and
reports the per-layer metrics. Every output is checked; the last line of
standard output is one JSON object with the verdict and the metrics, and the
full record (samples, output sha256, machine stamp) goes to
``perfbench/results``. The page cache is warm: inputs are read once before
timing and the benchmark never drops caches.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from tensorfile import Checkpoint, tree_sha256  # noqa: E402
from workloads import ROLES, WORKLOADS, Workload, ensure_inputs, input_bytes  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"
CLI = "import sys; from dimerge.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 120
MIN_SETUP_SAMPLES = 3
SETUP_NOMINAL_S = 2.3
OVERRUN = 1.2


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Invocation:
    def __init__(self, wall: float, maxrss_mib: float, code: int, stdout: str, stderr: str):
        self.wall, self.maxrss_mib, self.code = wall, maxrss_mib, code
        self.stdout, self.stderr = stdout, stderr
        self.problems: list[str] = [] if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(args: list[str], log_dir: Path) -> Invocation:
    """Run one child; wall time from spawn to exit, peak RSS from its rusage."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                      out_path.read_text(errors="replace"), err_path.read_text(errors="replace"))


def dimerge_args(*args: str) -> list[str]:
    return [sys.executable, "-c", CLI, *args]


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


class Runner:
    """Runs, checks and times the invocations of one workload in one run."""

    def __init__(self, wl: Workload, inputs: Path, run_dir: Path):
        self.wl, self.inputs, self.dir = wl, inputs, run_dir
        self.threads = len(os.sched_getaffinity(0))
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: dict[str, list[str]] = {}             # output hash -> problems
        self.output_sha256: dict[str, dict[str, str]] = {}   # output hash -> sha256 per file
        self.config = self._write_config()
        self.expected_counts = {role: len(Checkpoint(inputs / role).names()) for role in ROLES}
        self.diag_reference = None

    def _write_config(self) -> Path:
        cfg = {
            "schema_version": 1,
            "base_path": str(self.inputs / "base"),
            "multilingual_path": str(self.inputs / "multilingual"),
            "anchor_path": str(self.inputs / "anchor"),
            "output_path": str(self.dir / "out"),
            "remap": {"preset": "llama"},
            "merge": self.wl.merge,
            "diagnose": {"schema": {"preset": "llama"}},
        }
        if self.wl.shard_limit:
            cfg["shard_limit"] = self.wl.shard_limit
        path = self.dir / "config.json"
        path.write_text(json.dumps(cfg, indent=1))
        return path

    def _record(self, inv: Invocation, tag: str) -> Invocation:
        self.attempted += 1
        if inv.problems:
            self.failed += 1
            self.problems += [f"{tag}: {p}" for p in inv.problems]
        return inv

    def setup_probe(self, tag: str) -> Invocation:
        inv = spawn([sys.executable, str(HERE / "load_inputs.py"), str(self.config)], self.dir / "logs" / tag)
        if inv.code == 0:
            try:
                info = json.loads(inv.stdout.strip().splitlines()[-1])
                if not Path(info["dimerge"]).resolve().is_relative_to(SRC.resolve()):
                    inv.problems.append(f"dimerge imported from {info['dimerge']}, not {SRC}")
                if info["tensors"] != self.expected_counts:
                    inv.problems.append(f"loaded {info['tensors']}, expected {self.expected_counts}")
            except (ValueError, KeyError, IndexError) as exc:
                inv.problems.append(f"unreadable set-up probe output: {exc}")
        return self._record(inv, tag)

    def command(self, tag: str, threads: int, traced: Path | None = None) -> Invocation:
        """One merge (or diagnose) process; its output is checked, then removed."""
        out = self.dir / tag
        if self.wl.command == "merge":
            args = ["merge", "--config", str(self.config), "--threads", str(threads), "--output", str(out)]
        else:
            out.mkdir(parents=True, exist_ok=True)
            args = ["diagnose", "--config", str(self.config),
                    "--set", f"diagnose.csv_path={out / 'diag.csv'}", "--set", f"diagnose.json_path={out / 'diag.json'}"]
        if traced is None:
            cmd = dimerge_args(*args)
        else:
            cmd = [sys.executable, str(HERE / "traced.py"), str(traced), "--", *args]
        inv = spawn(cmd, self.dir / "logs" / tag)
        if inv.code == 0:
            inv.problems += self._check_output(out)
        report = Path(f"{out}.report.json")
        if report.is_file():
            report.replace(self.dir / f"{tag}.report.json")
        shutil.rmtree(out, ignore_errors=True)
        return self._record(inv, tag)

    def _check_output(self, out: Path) -> list[str]:
        if not out.exists():
            return [f"no output at {out}"]
        try:
            return self._check_existing_output(out)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"output could not be checked: {exc!r}"]

    def _check_existing_output(self, out: Path) -> list[str]:
        sha = tree_sha256(out)
        key = hashlib.sha256(json.dumps(sha, sort_keys=True).encode()).hexdigest()
        problems = []
        if self.wl.command == "merge":
            problems += checks.check_report(Path(f"{out}.report.json"), self.wl)
        if key not in self.verdicts:
            if self.wl.command == "merge":
                self.verdicts[key] = checks.check_merge(self.wl, self.inputs, out)
            else:
                if self.diag_reference is None:
                    self.diag_reference = checks.diagnose_reference(self.inputs)
                self.verdicts[key] = checks.check_diagnose(out / "diag.json", out / "diag.csv", self.diag_reference)
        problems += self.verdicts[key]
        if self.output_sha256 and key not in self.output_sha256:
            problems.append("output bytes differ from the first output of this run (thread count must not change bytes)")
        self.output_sha256.setdefault(key, sha)
        return problems


def _samples(invs: list[Invocation], attr: str) -> list[float]:
    """Values from the invocations that passed their checks (all, if none did)."""
    return [getattr(i, attr) for i in invs if not i.problems] or [getattr(i, attr) for i in invs]


def measure(r: Runner, seconds: float) -> tuple[dict, dict]:
    """Rounds of (command at 1 thread, command at all cores), the first three
    each preceded by a set-up probe.

    The number of rounds comes from ``seconds`` and the workload's nominal
    round length on a 2-core box, so every run of a workload does the same
    work; only when the machine runs far slower than that are rounds dropped,
    keeping a run within ``OVERRUN`` times ``seconds``. ``diagnose`` has no
    thread option, so its one process per round is both the 1-thread run and
    the run a user gets by default.
    """
    planned = max(1, round((seconds - MIN_SETUP_SAMPLES * SETUP_NOMINAL_S) / r.wl.round_s))
    setups, singles, multis, rounds = [], [], [], []
    start = time.perf_counter()
    for i in range(planned):
        t0 = time.perf_counter()
        if i < MIN_SETUP_SAMPLES:
            setups.append(r.setup_probe(f"setup{i}"))
        if r.wl.multithreaded:
            order = [("t1", 1, singles), ("tN", r.threads, multis)]
            for tag, threads, bucket in order if i % 2 == 0 else order[::-1]:
                bucket.append(r.command(f"{tag}_{i}", threads))
        else:
            singles.append(r.command(f"t1_{i}", 1))
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(rounds) > OVERRUN * seconds:
            break
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(r.setup_probe(f"setup{len(setups)}"))
    multis = multis or singles

    samples = {
        "wall_s": (_samples(singles, "wall"), "s"),
        "wall_s_mt": (_samples(multis, "wall"), "s"),
        "setup_s": (_samples(setups, "wall"), "s"),
        "peak_rss_mb": (_samples(singles, "maxrss_mib"), "MiB"),
        "peak_rss_mb_mt": (_samples(multis, "maxrss_mib"), "MiB"),
    }
    metrics = {k: {"value": statistics.median(xs), "unit": unit} for k, (xs, unit) in samples.items()}
    return metrics, {k: xs for k, (xs, _) in samples.items()}


def traced_run(r: Runner) -> tuple[dict, dict]:
    """Untraced 1-thread runs before and after the traced one, so the tracing
    overhead is taken against their mean rather than one drifting sample."""
    before = r.command("t1", 1)
    multi = r.command("tN", r.threads) if r.wl.multithreaded else before
    trace_path = r.dir / "trace.json"
    traced = r.command("traced", 1, traced=trace_path)
    after = r.command("t1_after", 1)
    if not trace_path.is_file():
        r.problems.append("traced run wrote no trace")
        return {}, {}
    trace = json.loads(trace_path.read_text())
    report_path = r.dir / "t1.report.json"
    report = json.loads(report_path.read_text()) if report_path.is_file() else {"tensors": []}
    wall_1 = (before.wall + after.wall) / 2.0
    return spans.per_layer(trace, traced.wall, wall_1, multi.wall, report, r.wl)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


def stamp() -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "page_cache": "warm: inputs are read once before timing; caches are never dropped",
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _warm(directory: Path) -> None:
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            with open(p, "rb") as fh:
                while fh.read(1 << 24):
                    pass


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    t0 = time.perf_counter()
    inputs, manifest, generated = ensure_inputs(wl.inputs, seed, WORK / "inputs")
    gen_s = time.perf_counter() - t0
    _warm(inputs)
    run_dir = WORK / "runs" / wl.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    r = Runner(wl, inputs, run_dir)

    if trace:
        metrics, detail = traced_run(r)
        samples = {}
    else:
        metrics, samples = measure(r, seconds)
        detail = {}
    return {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": r.failed == 0 and not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "failed_frac": r.failed / max(r.attempted, 1),
        "problems": r.problems[:50],
        "metrics": metrics,
        "samples": samples,
        "detail": detail,
        "inputs": {"dir": inputs.name, "generated": generated, "generate_s": gen_s,
                   "bytes": input_bytes(manifest), "params_per_checkpoint": wl.inputs.params()},
        "outputs_sha256": list(r.output_sha256.values()),
        "threads_mt": r.threads,
        "run_s": time.perf_counter() - t0,
        "stamp": stamp(),
    }


def print_summary(res: dict) -> None:
    print(f"== {res['workload']}  seed={res['seed']}  trace={res['trace']}  ({res['why']})")
    inp = res["inputs"]
    print(f"   inputs {inp['dir']}: {inp['bytes'] / 1e6:.1f} MB, {inp['params_per_checkpoint'] / 1e6:.2f} M params/checkpoint, "
          f"{'generated' if inp['generated'] else 'cached'} ({inp['generate_s']:.1f} s, not timed)")
    for name, m in res["metrics"].items():
        xs = res["samples"].get(name)
        extra = f"  (median of {len(xs)}: {', '.join(f'{x:.4g}' for x in xs)})" if xs else ""
        print(f"   {name:<28} {m['value']:>14.6g} {m['unit']}{extra}")
    if res["samples"] and not WORKLOADS[res["workload"]].multithreaded:
        print("   (diagnose has no thread option: the *_mt metrics reuse the default-run samples)")
    print(f"   {'failed_frac':<28} {res['failed_frac']:>14.6g} ratio  ({res['failed']}/{res['attempted']} invocations)")
    for detail_line in res["detail"].get("lines", []):
        print(f"   {detail_line}")
    print(f"   run took {res['run_s']:.1f} s")
    for sha in res["outputs_sha256"]:
        for fname, digest in sha.items():
            print(f"   output sha256 {fname} {digest}")
    for problem in res["problems"]:
        print(f"   CHECK FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dimerge" / "__init__.py").is_file():
        print(f"error: no dimerge sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        RESULTS.mkdir(parents=True, exist_ok=True)
        out = RESULTS / f"{name}_seed{args.seed}_trace{args.trace}.json"
        out.write_text(json.dumps(res, indent=1) + "\n")
        print_summary(res)
        print(f"   results -> {out.relative_to(ROOT)}")
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
