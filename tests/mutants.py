"""Mutation runner: break one stated rule at a time and check that tier-1 fails.

Each entry of ``MUTANTS`` names a file, an exact old text that occurs once
in it, the new text that replaces it and the rule that the change breaks.
For each entry the runner copies the repository (without ``.git``, caches
and bench inputs) to a temporary directory, applies that one mutant, runs
the tier-1 suite there with ``-x`` (without ``tests/test_mutants.py``, which
checks the unmutated tree) and prints ``killed`` (a test failed) or
``survived`` (every test passed). A mutant that no test can tell apart from
the code gives the reason in ``equivalent``; it is run and reported like the
others, but its survival is not a gap. A survivor that is not marked
equivalent is a test to add::

    python tests/mutants.py              # every entry; a survivor costs a full tier-1 run
    python tests/mutants.py f16-inf ...  # the named entries only

The exit status is 1 if a mutant not marked equivalent survived or its run
failed to start. The script uses only the standard library. pytest does not
collect it; ``tests/test_mutants.py`` checks that each old text still occurs
exactly once, so a refactor that moves a rule must move its mutant too.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER_1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors", "-p", "no:cacheprovider",
          "--ignore=tests/test_mutants.py")
_NOT_COPIED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info",
                                     ".work", "results")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str          # relative to the repository root
    old: str           # occurs exactly once in the file
    new: str
    rule: str          # what the mutant breaks
    equivalent: str | None = None   # why no test can tell it apart, if none can

    def apply(self, root: Path) -> None:
        target = root / self.path
        text = target.read_text()
        if text.count(self.old) != 1:
            raise ValueError(f"{self.name}: old text occurs {text.count(self.old)} times in {self.path}")
        target.write_text(text.replace(self.old, self.new))


MUTANTS = (
    # the mutants probed by hand before the runner existed
    Mutant("f16-inf", "src/dimerge/records.py",
           "-65536 < out.min(initial=0.0) and out.max(initial=0.0) < 65536",
           "-65536 <= out.min(initial=0.0) and out.max(initial=0.0) <= 65536",
           "an F16 infinity decodes to an infinity, also in a block with no NaN"),
    Mutant("ties-positive-zero", "src/dimerge/baselines.py",
           "    t_ml += np.float32(0.0)   # turns -0.0 into +0.0 where no entry agrees\n", "",
           "a TIES entry trimmed from both sources merges to +0.0, not -0.0"),
    Mutant("cosine-guard-at-epsilon", "src/dimerge/geometry.py",
           "(norms_a < epsilon) | (norms_b < epsilon)", "(norms_a <= epsilon) | (norms_b <= epsilon)",
           "the cosine guard voids a column whose norm is below epsilon, not one equal to it"),
    Mutant("rank-half-integer", "src/dimerge/salience.py",
           "(starts + 1 + ends) / 2.0", "(starts + ends) / 2.0 + 0.5",
           "a tied group's rank is the mean of its positions",
           equivalent="(s + 1 + e) / 2 and (s + e) / 2 + 0.5 are the same half-integer, exact in float64 "
                      "for any index below 2**52"),
    Mutant("rank-ties-at-top", "src/dimerge/salience.py",
           "np.repeat((starts + 1 + ends) / 2.0, ends - starts)", "np.repeat(ends / 1.0, ends - starts)",
           "a tied group gets the mean of its ranks, not its top rank"),
    Mutant("task-arithmetic-positive-zero", "src/dimerge/baselines.py",
           "    ml += np.float32(0.0)   # two dropped negative entries sum to +0.0, as two zeros do\n", "",
           "two dropped negative entries sum to +0.0"),
    Mutant("layer-range-upper-end", "src/dimerge/scope.py",
           "return lo <= idx <= hi", "return lo <= idx < hi",
           "a layer range includes its upper end"),
    Mutant("f64-narrowing-check", "src/dimerge/merge.py",
           "narrows = out_dtype.itemsize < anchor.dtype.itemsize", "narrows = False",
           "F64 anchor rows narrowed to F32 past its range are a numeric error"),
    Mutant("commit-removes-old", "src/dimerge/store.py",
           "                kept.unlink()\n", "                pass\n",
           "a successful commit deletes the old files it kept under hidden names"),
    Mutant("config-number-finite", "src/dimerge/errors.py",
           "_is(v, (int, float)) and abs(v) <= sys.float_info.max", "_is(v, (int, float))",
           "a config number is finite"),
    Mutant("branch-score-range", "src/dimerge/salience.py",
           "if np.any(s < 0.0) or np.any(s > 1.0):", "if np.any(s < 0.0):",
           "branch scores above 1 are a numeric error"),
    Mutant("top-k-tie-order", "src/dimerge/baselines.py",
           "np.flatnonzero(np.equal(scores, group[0], out=out))[:group[1]]",
           "np.flatnonzero(np.equal(scores, group[0], out=out))[::-1][:group[1]]",
           "a top-k cut admits threshold ties at lower flat indices first"),
    Mutant("trailing-file-bytes", "src/dimerge/store.py",
           "if offset != len(body):", "if offset > len(body):",
           "bytes after the last tensor are a format error"),
    Mutant("diagnose-direction-columns", "src/dimerge/diagnostics.py",
           "dev.dir_ml.sum(), dev.dir_mm.sum()", "dev.dir_mm.sum(), dev.dir_ml.sum()",
           "dirdev_ml is the multilingual source's reorientation, dirdev_mm the anchor's"),
    # each tensor's fate in merge_checkpoint
    Mutant("fate-out-of-scope-before-scalar", "src/dimerge/merge.py",
           '"scalar" if cfg.scope.admits(name) else "out_of_scope"',
           '"scalar" if rec.rank == 0 else "out_of_scope"',
           "a scalar the scope does not admit passes through as out_of_scope, not scalar"),
    Mutant("fate-rank", "src/dimerge/merge.py",
           "t.rank >= 1 and cfg.scope.admits(t.name)", "cfg.scope.admits(t.name)",
           "a scalar passes through; only tensors of rank 1 or 2 are composed"),
    Mutant("fate-scope", "src/dimerge/merge.py",
           "t.rank >= 1 and cfg.scope.admits(t.name)", "t.rank >= 1",
           "a tensor the scope does not admit passes through"),
    # each ENCODE_LIMIT row: the largest float32 that encodes finitely in its dtype
    Mutant("encode-limit-f32", "src/dimerge/records.py",
           "DType.F32: np.finfo(np.float32).max,", "DType.F32: np.float32(np.inf),",
           "a merged infinity is a numeric error in F32 output"),
    Mutant("encode-limit-f64", "src/dimerge/records.py",
           "DType.F64: np.finfo(np.float32).max,", "DType.F64: np.float32(np.inf),",
           "a merged infinity is a numeric error in F64 output"),
    Mutant("encode-limit-f16", "src/dimerge/records.py",
           "np.nextafter(np.float32(65520), np.float32(0))", "np.float32(65520)",
           "a merged value that F16 rounds to infinity (from 65520) is a numeric error"),
    Mutant("encode-limit-bf16", "src/dimerge/records.py",
           "np.uint32(0x7F7F7FFF).view(np.float32)", "np.uint32(0x7F7F8000).view(np.float32)",
           "a merged value that bf16 rounds to infinity (from 0x7F7F8000) is a numeric error"),
    # a run commits only what it computed from inputs that held still
    Mutant("input-changed-in-place", "src/dimerge/store.py",
           "if now != m.identity:", "if now is None or now[:2] != m.identity[:2]:",
           "an input rewritten in place (same device and inode) during a run is refused"),
)


def run(mutant: Mutant) -> tuple[str, str]:
    """``killed``, ``survived`` or ``error`` (tier-1 did not run to a verdict)
    for the tree with ``mutant`` applied, in a temporary copy, and the first
    failing test that pytest names."""
    with tempfile.TemporaryDirectory(prefix="dimerge-mutant-") as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=_NOT_COPIED)
        mutant.apply(tree)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, *TIER_1], cwd=tree, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    failed = [line.split(" - ")[0] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    # pytest exits 1 when a test failed and 0 when all passed; anything else is no verdict
    return {0: "survived", 1: "killed"}.get(done.returncode, "error"), (failed or [""])[0]


def main(names: list[str]) -> int:
    # a terminated run unwinds as on Ctrl-C: the tier-1 child is killed and its copy removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    counts = {"killed": 0, "survived": 0, "equivalent": 0, "error": 0}
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        started = time.perf_counter()
        verdict, failed = run(mutant)
        if verdict == "survived" and mutant.equivalent:
            verdict = "equivalent"
        counts[verdict] += 1
        print(f"{verdict:10} {time.perf_counter() - started:6.1f} s  {mutant.name}: {mutant.rule}"
              + (f" (equivalent: {mutant.equivalent})" if mutant.equivalent else "")
              + (f"\n{'':19} by {failed}" if failed else ""), flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["survived"] or counts["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
