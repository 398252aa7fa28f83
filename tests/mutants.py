"""Mutation runner: break one stated rule at a time and check that tier-1 fails.

Each entry of ``MUTANTS`` names a file, an exact old text that occurs once
in it, the new text that replaces it and the rule that the change breaks.
For each entry the runner copies the repository (without ``.git``, caches
and bench inputs) to a temporary directory and applies that one mutant.
It runs there first the test named in ``killed_by``, the one that killed
the mutant in the last full run: if that test fails, the mutant is
``killed``. Otherwise (the test passes, or is gone) it runs the tier-1
suite with ``-x`` (without ``tests/test_mutants.py``, which checks the
unmutated tree) and prints ``killed`` (a test failed) or ``survived``
(every test passed), so a stale ``killed_by`` costs time but never hides a
survivor. A mutant that no test can tell apart from the code gives the
reason in ``equivalent``; it is run and reported like the others, but its
survival is not a gap. A survivor that is not marked equivalent is a test
to add::

    python tests/mutants.py              # every entry; a survivor costs a full tier-1 run
    python tests/mutants.py f16-inf ...  # the named entries only

Each killed mutant is printed with the test that killed it, marked ``(full
run)`` where its ``killed_by`` did not; copy that test into ``killed_by``.

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
    killed_by: str | None = None    # the test id that killed it in the last full run
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
           "an F16 infinity decodes to an infinity, also in a block with no NaN",
           killed_by="tests/test_records.py::TestF16Decode::test_infinities_without_a_nan"),
    Mutant("ties-positive-zero", "src/dimerge/baselines.py",
           "    t_ml += np.float32(0.0)   # turns -0.0 into +0.0 where no entry agrees\n", "",
           "a TIES entry trimmed from both sources merges to +0.0, not -0.0",
           killed_by="tests/test_baselines.py::TestTies::test_trimmed_entries_merge_to_positive_zero"),
    Mutant("cosine-guard-at-epsilon", "src/dimerge/geometry.py",
           "(norms_a < epsilon) | (norms_b < epsilon)", "(norms_a <= epsilon) | (norms_b <= epsilon)",
           "the cosine guard voids a column whose norm is below epsilon, not one equal to it",
           killed_by="tests/test_geometry.py::TestDeviations::test_norm_equal_to_epsilon_keeps_its_direction"),
    Mutant("rank-half-integer", "src/dimerge/salience.py",
           "(starts + 1 + ends) / 2.0", "(starts + ends) / 2.0 + 0.5",
           "a tied group's rank is the mean of its positions",
           equivalent="(s + 1 + e) / 2 and (s + e) / 2 + 0.5 are the same half-integer, exact in float64 "
                      "for any index below 2**52"),
    Mutant("rank-ties-at-top", "src/dimerge/salience.py",
           "np.repeat((starts + 1 + ends) / 2.0, ends - starts)", "np.repeat(ends / 1.0, ends - starts)",
           "a tied group gets the mean of its ranks, not its top rank",
           killed_by="tests/test_acceptance.py::test_oracle_composes_exactly_beside_a_huge_base"),
    Mutant("task-arithmetic-positive-zero", "src/dimerge/baselines.py",
           "    ml += np.float32(0.0)   # two dropped negative entries sum to +0.0, as two zeros do\n", "",
           "two dropped negative entries sum to +0.0",
           killed_by="tests/test_baselines.py::TestDare::test_keeps_what_the_uniforms_keep_across_blocks[0.1]"),
    Mutant("layer-range-upper-end", "src/dimerge/scope.py",
           "return lo <= idx <= hi", "return lo <= idx < hi",
           "a layer range includes its upper end",
           killed_by="tests/test_digests.py::test_output_bytes_are_pinned[ties-BF16-layers-1]"),
    Mutant("f64-narrowing-check", "src/dimerge/merge.py",
           "narrows = out_dtype.itemsize < anchor.dtype.itemsize", "narrows = False",
           "F64 anchor rows narrowed to F32 past its range are a numeric error",
           killed_by="tests/test_merge.py::TestF64Narrowing::test_anchor_rows_past_float32[f32]"),
    Mutant("commit-removes-old", "src/dimerge/store.py",
           "                kept.unlink()\n", "                pass\n",
           "a successful commit deletes the old files it kept under hidden names",
           killed_by="tests/test_commit.py::test_every_rename_failure_leaves_the_old_files[save_sharded_to_sharded]"),
    Mutant("config-number-finite", "src/dimerge/errors.py",
           "_is(v, (int, float)) and abs(v) <= sys.float_info.max", "_is(v, (int, float))",
           "a config number is finite",
           killed_by="tests/test_cli.py::TestDiagnoseCommand::test_malformed_config_is_config_error[merge_epsilon_nan]"),
    Mutant("branch-score-range", "src/dimerge/salience.py",
           "if np.any(s < 0.0) or np.any(s > 1.0):", "if np.any(s < 0.0):",
           "branch scores above 1 are a numeric error",
           killed_by="tests/test_salience.py::TestAggregation::test_out_of_range_scores_rejected"),
    Mutant("top-k-tie-order", "src/dimerge/baselines.py",
           "np.flatnonzero(np.equal(scores, group[0], out=out))[:group[1]]",
           "np.flatnonzero(np.equal(scores, group[0], out=out))[::-1][:group[1]]",
           "a top-k cut admits threshold ties at lower flat indices first",
           killed_by="tests/test_baselines.py::TestTies::test_tie_at_threshold_prefers_lower_index"),
    Mutant("trailing-file-bytes", "src/dimerge/store.py",
           "if offset != body_size:", "if offset > body_size:",
           "bytes after the last tensor are a format error",
           killed_by="tests/test_store.py::TestDataOffsets::test_trailing_bytes_rejected"),
    Mutant("diagnose-direction-columns", "src/dimerge/diagnostics.py",
           "dev.dir_ml.sum(), dev.dir_mm.sum()", "dev.dir_mm.sum(), dev.dir_ml.sum()",
           "dirdev_ml is the multilingual source's reorientation, dirdev_mm the anchor's",
           killed_by="tests/test_diagnostics.py::TestDiagnose::test_single_tensor_group_matches_reference"),
    # each tensor's fate in merge_checkpoint
    Mutant("fate-out-of-scope-before-scalar", "src/dimerge/merge.py",
           '"scalar" if cfg.scope.admits(name) else "out_of_scope"',
           '"scalar" if rec.rank == 0 else "out_of_scope"',
           "a scalar the scope does not admit passes through as out_of_scope, not scalar",
           killed_by="tests/test_pass_through_fuzz.py::test_each_anchor_tensor_has_one_outcome"),
    Mutant("fate-rank", "src/dimerge/merge.py",
           "t.rank >= 1 and cfg.scope.admits(t.name)", "cfg.scope.admits(t.name)",
           "a scalar passes through; only tensors of rank 1 or 2 are composed",
           killed_by="tests/test_merge.py::test_scalar_is_the_anchor_record_as_merge_checkpoint_writes_it[dim3]"),
    Mutant("fate-scope", "src/dimerge/merge.py",
           "t.rank >= 1 and cfg.scope.admits(t.name)", "t.rank >= 1",
           "a tensor the scope does not admit passes through",
           killed_by="tests/test_acceptance.py::test_criterion_5_trivial_limits"),
    # each ENCODE_LIMIT row: the largest float32 that encodes finitely in its dtype
    Mutant("encode-limit-f32", "src/dimerge/records.py",
           "DType.F32: np.finfo(np.float32).max,", "DType.F32: np.float32(np.inf),",
           "a merged infinity is a numeric error in F32 output",
           killed_by="tests/test_cli.py::test_overflow_prints_only_the_error[merge-values0-merged values are not finite in F32]"),
    Mutant("encode-limit-f64", "src/dimerge/records.py",
           "DType.F64: np.finfo(np.float32).max,", "DType.F64: np.float32(np.inf),",
           "a merged infinity is a numeric error in F64 output",
           killed_by="tests/test_records.py::test_encode_limit_is_the_largest_float32_kept_finite[F64]"),
    Mutant("encode-limit-f16", "src/dimerge/records.py",
           "np.nextafter(np.float32(65520), np.float32(0))", "np.float32(65520)",
           "a merged value that F16 rounds to infinity (from 65520) is a numeric error",
           killed_by="tests/test_merge.py::TestMergedOverflow::test_task_arithmetic_at_the_output_limit[f16_65520]"),
    Mutant("encode-limit-bf16", "src/dimerge/records.py",
           "np.uint32(0x7F7F7FFF).view(np.float32)", "np.uint32(0x7F7F8000).view(np.float32)",
           "a merged value that bf16 rounds to infinity (from 0x7F7F8000) is a numeric error",
           killed_by="tests/test_merge.py::TestMergedOverflow::test_task_arithmetic_at_the_output_limit[bf16_past_max]"),
    # a run commits only what it computed from inputs that held still
    Mutant("input-changed-in-place", "src/dimerge/store.py",
           "if now != file.identity:", "if now is None or now[:2] != file.identity[:2]:",
           "an input rewritten in place (same device and inode) during a run is refused",
           killed_by="tests/test_cli.py::TestMergeCommand::test_input_changed_between_passes_commits_nothing[rewritten_in_place]"),
    Mutant("short-read", "src/dimerge/store.py",
           "        if not got:\n            raise rec.file.changed()\n",
           "        if not got:\n            break\n",
           "an input that ends before the rows a run reads (truncated during the run) is a format error there",
           killed_by="tests/test_cli.py::TestMergeCommand::test_input_truncated_between_passes_is_a_format_error"),
    # the README's other stated rules
    Mutant("exit-codes", "src/dimerge/cli.py",
           "return exc.exit_code", "return 1",
           "a run exits 2 for a config error, 3 for an I/O error and 4 for a numeric or shape error",
           killed_by="tests/test_align.py::TestRejected::test_anchor_overlap_needs_one_rank"),
    Mutant("interrupt-cancels-queued", "src/dimerge/merge.py",
           "pool.shutdown(cancel_futures=True)", "pool.shutdown(cancel_futures=False)",
           "an interrupt or the first failure cancels the tensors not yet started",
           killed_by="tests/test_merge.py::TestFirstErrorStops::test_first_error_in_order_and_no_more_work[merge-2]"),
    Mutant("tile-partition", "src/dimerge/merge.py",
           "return TILE_ROWS * max(1, _BLOCK_ELEMENTS // (TILE_ROWS * cols))",
           "return max(1, _BLOCK_ELEMENTS // cols)",
           "row blocks are whole tiles, so column sums do not depend on the block size",
           killed_by="tests/test_streaming.py::test_default_row_blocks_are_whole_tiles[24]"),
    Mutant("commit-rollback", "src/dimerge/store.py",
           "os.replace(kept, target)  # does nothing if both name one file", "pass",
           "a commit that fails part-way puts back every file it had replaced",
           killed_by="tests/test_cli.py::TestMergeCommand::test_failed_report_write_keeps_previous_output"),
    Mutant("preset-default", "src/dimerge/errors.py",
           "default = cls.presets.get(values.get(own[0].name), {}).get(f.name, f.default)", "default = f.default",
           "a config preset sets the fields not given beside it",
           killed_by="tests/test_acceptance.py::test_criterion_5_trivial_limits"),
    Mutant("count-at-least-one", "src/dimerge/errors.py",
           "_is(v, int) and v >= 1", "_is(v, int)",
           "threads and shard_limit below 1 are a config error",
           killed_by="tests/test_cli.py::TestMergeCommand::test_malformed_config_is_config_error[threads_negative]"),
    Mutant("diagnose-reads-merge", "src/dimerge/cli.py",
           "run = load_config(config_path, overrides, threads=threads)",
           'run = load_config(config_path, [*overrides, "merge=null"], threads=threads)',
           "either command reads the whole config, so diagnose refuses a bad merge section",
           killed_by="tests/test_cli.py::TestConfigChecks::test_each_command_refuses_the_other_commands_bad_section[merge_method]"),
    # where a run writes
    Mutant("written-config-file", "src/dimerge/cli.py",
           "if out == Path(config_path).resolve():", "if False:",
           "a written path that is the config file is refused",
           killed_by="tests/test_cli.py::TestMergeCommand::test_output_collision_rejected"),
    Mutant("written-overlaps-input", "src/dimerge/cli.py",
           "if read in (out, *out.parents) or out in read.parents:", "if read == out:",
           "a written path that holds or lies inside an input path is refused",
           killed_by="tests/test_cli.py::TestMergeCommand::test_output_collision_rejected"),
    Mutant("report-named-like-tensor-file", "src/dimerge/cli.py",
           'endswith((".safetensors", ".index.json"))', 'endswith((".index.json",))',
           "a report named like a tensor file is refused",
           killed_by="tests/test_cli.py::TestMergeCommand::test_report_named_like_a_tensor_file_is_refused[r.safetensors]"),
    Mutant("commit-removes-partials", "src/dimerge/store.py",
           "                    leftover.unlink(missing_ok=True)\n", "                    pass\n",
           "a commit deletes the .partial files that killed runs left for its targets",
           killed_by="tests/test_commit.py::test_a_commit_deletes_what_killed_runs_left_staged"),
    # what a loaded checkpoint's files may say
    Mutant("header-metadata-disagree", "src/dimerge/store.py",
           "return found[0] if len(found) == 1 else None", "return found[0] if found else None",
           "files that hold different __metadata__ maps give the output none",
           killed_by="tests/test_store.py::TestHeaderMetadata::test_files_that_differ_write_none_with_a_warning[different]"),
    Mutant("manifest-shard-name", "src/dimerge/store.py",
           "\n                and Path(shard_name).name == shard_name):", "):",
           "an index manifest that maps a tensor to a path, not a file name in its directory, is a format error",
           killed_by="tests/test_cli.py::TestInspectCommand::test_index_naming_no_shard_file_is_format_error[parent_dir]"),
    # every input row is read by the worker's BlockBuffers
    Mutant("read-role-record", "src/dimerge/merge.py",
           "dict(zip(ROLES, (triple.base, triple.ml, triple.mm)))",
           "dict(zip(ROLES, (triple.base, triple.mm, triple.ml)))",
           "each role reads its own record",
           killed_by="tests/test_merge.py::TestNonFiniteInput::test_nan_in_ml_rejected[dim3]"),
    Mutant("source-named-as-tensor", "src/dimerge/baselines.py",
           "                values, = buffers.read(triple, r0, r1, (role,))\n"
           "                require_finite(values, f\"{triple.name}: {role} tensor contains non-finite values\")\n", "",
           "a non-finite source is named as its tensor before its residual",
           killed_by="tests/test_merge.py::TestNonFiniteInput::test_nan_in_ml_rejected[task_arithmetic]"),
    # the merge report
    Mutant("summary-counts", "src/dimerge/merge.py",
           "MergeSummary(merged, len(entries) - merged,", "MergeSummary(merged, len(entries),",
           "the summary's counts are its entries' counts",
           killed_by="tests/test_merge.py::TestMergeCheckpoint::test_report_schema"),
    Mutant("pass-through-seconds", "src/dimerge/merge.py",
           "seconds=time.perf_counter() - started)", "seconds=0.0)",
           "a pass-through entry records how long its copy took",
           killed_by="tests/test_report.py::test_every_pass_through_entry_times_its_copy"),
    Mutant("entry-action-choices", "src/dimerge/merge.py",
           'action: str = field(metadata={"choices": ("merged", "pass_through")})', "action: str = field()",
           "an entry's action is merged or pass_through",
           killed_by="tests/test_report.py::test_an_entry_action_is_merged_or_pass_through"),
    # a config range error names its dotted key
    Mutant("range-error-names-key", "src/dimerge/merge.py",
           'ConfigError(f"merge.epsilon must be positive', 'ConfigError(f"epsilon must be positive',
           "a merge value out of its range is refused by a message naming its dotted key",
           killed_by="tests/test_cli.py::TestDiagnoseCommand::test_bad_merge_value_names_its_key[epsilon_zero]"),
    # one field and one check per config fact
    Mutant("choice-error-names-section", "src/dimerge/errors.py",
           'raise _bad_value(self.section, f.metadata.get("key", f.name)',
           'raise _bad_value("", f.metadata.get("key", f.name)',
           "a named value outside its choices is refused by a message naming its dotted key",
           killed_by="tests/test_config_reader.py::test_every_choice_error_names_its_dotted_key[MergeConfig.method]"),
    Mutant("baseline-choice-check", "src/dimerge/baselines.py",
           "        super().__post_init__()\n        if not math.isfinite(self.lam):",
           "        if not math.isfinite(self.lam):",
           "every record's own checks run after the base record's choice check",
           killed_by="tests/test_config_reader.py::test_every_override_runs_the_choice_check[merge.baseline]"),
    Mutant("aggregation-default-lambda", "src/dimerge/salience.py",
           '"lam", 0.75 if self.lam is None', '"lam", 0.8 if self.lam is None',
           "a weighted aggregation given no lambda gets 0.75, in code as in a config",
           killed_by="tests/test_config_records.py::test_a_weighted_kind_made_in_code_gets_the_config_lambda[dir_weighted]"),
    Mutant("diagnose-epsilon-is-merge", "src/dimerge/cli.py",
           "cfg.schema, run.merge.epsilon, run.threads", "cfg.schema, 1e-8, run.threads",
           "diagnose guards its cosines with merge.epsilon",
           killed_by="tests/test_cli.py::TestDiagnoseCommand::test_cosine_guard_is_merge_epsilon"),
)


def run(mutant: Mutant) -> tuple[str, str, bool]:
    """``killed``, ``survived`` or ``error`` (tier-1 did not run to a verdict)
    for the tree with ``mutant`` applied, in a temporary copy; the first
    failing test that pytest names; and whether the full tier-1 ran."""
    with tempfile.TemporaryDirectory(prefix="dimerge-mutant-") as scratch:
        tree = Path(scratch) / "repo"
        shutil.copytree(ROOT, tree, ignore=_NOT_COPIED)
        mutant.apply(tree)
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        def pytest(*args: str) -> subprocess.CompletedProcess:
            return subprocess.run([sys.executable, *TIER_1, *args], cwd=tree, env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)

        # pytest exits 1 when a test failed and 0 when all passed; anything else is no verdict
        if mutant.killed_by and pytest(mutant.killed_by).returncode == 1:
            return "killed", mutant.killed_by, False
        done = pytest()
    failed = [line.split(" - ")[0].split(" ", 1)[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return {0: "survived", 1: "killed"}.get(done.returncode, "error"), (failed or [""])[0], True


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
        verdict, failed, full = run(mutant)
        if verdict == "survived" and mutant.equivalent:
            verdict = "equivalent"
        counts[verdict] += 1
        print(f"{verdict:10} {time.perf_counter() - started:6.1f} s  {mutant.name}: {mutant.rule}"
              + (f" (equivalent: {mutant.equivalent})" if mutant.equivalent else "")
              + (f"\n{'':19} by {failed}" + (" (full run)" if full else "") if failed else ""), flush=True)
    print(", ".join(f"{count} {verdict}" for verdict, count in counts.items()))
    return 1 if counts["survived"] or counts["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
