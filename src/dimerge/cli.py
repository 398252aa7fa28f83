"""Command-line entry point: load, align, merge or diagnose, save.

Runs are driven by a declarative JSON config (versioned ``schema_version``
field) with repeatable ``--set dotted.key=value`` overrides. The effective,
fully-resolved config is echoed into the merge report so any run can be
reproduced byte-for-byte. Everything a run writes (the checkpoint, then its
report; or both ``diagnose`` tables) is one :func:`~dimerge.store.staged_files`
commit, so a failed run leaves the earlier output and report as they were,
and a path written twice is refused. Either command refuses a path it writes
that is the config file or is, holds or lies inside an input path, and a
report or table path that is a directory, before it loads the inputs.

Exit codes: 0 success, 2 config error, 3 I/O error, 4 numeric/shape error.
Set ``DIMERGE_LOG`` to DEBUG/INFO/WARNING/ERROR to control logging. An input
changed during a run, truncated included, is an I/O error (exit 3) that
names the file.
"""

from __future__ import annotations

import argparse
import copy
import json
import logging
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .align import ROLES
from .diagnostics import DiagnoseConfig, diagnose, export_csv, export_json
from .errors import ConfigError, DimergeError, Record, read_section, read_value
from .merge import MergeConfig, merge_checkpoint
from .presets import RemapRules
from .store import DEFAULT_SHARD_LIMIT, load_checkpoint, remap_keys, staged_files

logger = logging.getLogger("dimerge")

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class RunConfig(Record):
    """The whole run config, every command's sections in one record, so
    either command refuses a bad section of the other and a merge report's
    echo (its :meth:`to_dict`) serves both."""

    section = ""

    schema_version: int = SCHEMA_VERSION
    base_path: str | None = field(default=None, metadata={"kind": "string"})
    multilingual_path: str | None = field(default=None, metadata={"kind": "string"})
    anchor_path: str | None = field(default=None, metadata={"kind": "string"})
    remap: RemapRules = field(default_factory=RemapRules, metadata={"kind": RemapRules})
    merge: MergeConfig = field(default_factory=MergeConfig, metadata={"kind": MergeConfig})
    output_path: str | None = field(default=None, metadata={"kind": "string"})
    report_path: str | None = field(default=None, metadata={"kind": "string"})
    threads: int | None = field(default=None, metadata={"kind": "count"})
    shard_limit: int = field(default=DEFAULT_SHARD_LIMIT, metadata={"kind": "count"})
    diagnose: DiagnoseConfig = field(default_factory=DiagnoseConfig, metadata={"kind": DiagnoseConfig})


def _setup_logging() -> None:
    level = os.environ.get("DIMERGE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_set_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(config: dict, assignments: list[str]) -> dict:
    """Apply ``dotted.key=value`` overrides to leaf fields of a config dict."""
    config = copy.deepcopy(config)
    for assignment in assignments:
        if "=" not in assignment:
            raise ConfigError(f"--set expects dotted.key=value, got {assignment!r}",
                              error_class="config.bad_override")
        dotted, raw = assignment.split("=", 1)
        keys = dotted.split(".")
        node = config
        for depth, key in enumerate(keys[:-1], 1):
            # a section left out is made; one in its short form is expanded
            node[key] = read_section(node.get(key), ".".join(keys[:depth]))
            node = node[key]
        node[keys[-1]] = _parse_set_value(raw)
    return config


def load_config(path: str, overrides: list[str], **flags) -> RunConfig:
    """The run config at ``path`` with ``overrides`` applied, then each flag
    given (not None) set at its top-level key. Another schema version is a
    config error before any section is read. ``threads`` left out is one
    worker per CPU this process may run on (its affinity mask where the
    platform has one, so ``taskset`` and container cpusets count)."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}", error_class="config.missing_path")
    try:
        config = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", error_class="config.parse") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object", error_class="config.parse")
    config = apply_overrides(config, overrides)
    config.update((key, value) for key, value in flags.items() if value is not None)
    if config.get("threads") is None:
        config["threads"] = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    version = read_value(config, "", "schema_version", "integer", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version}", error_class="config.version")
    return RunConfig.from_dict(config)


def _required_path(run: RunConfig, key: str) -> Path:
    value = getattr(run, key)
    if not value:
        raise ConfigError(f"config field {key!r} is required", error_class="config.missing_path")
    p = Path(value)
    if not p.exists():
        raise ConfigError(f"{key} does not exist: {p}", error_class="config.missing_path")
    return p


def _output_file(key: str, path: str) -> str:
    """``path``, where an output is written as one file. An existing directory
    there is refused before any input is loaded, since the commit could not
    rename the file over it."""
    if Path(path).is_dir():
        raise ConfigError(f"{key} {path} is a directory", error_class="config.output_collision")
    return path


def _load_inputs(run: RunConfig, config_path: str, writes: list[str | Path]):
    """The inputs, remapped by the run's :class:`RemapRules`; a path in
    ``writes`` that is the config file (a directory may hold it: the writer
    deletes only tensor files) or is, holds or lies inside an input path is
    refused first, so no run writes over them, and the rules before any load."""
    paths = {role: _required_path(run, f"{role}_path") for role in ROLES}
    for written in map(Path, writes):
        out = written.resolve()
        if out == Path(config_path).resolve():
            raise ConfigError(f"{written} is the config file", error_class="config.output_collision")
        for role, path in paths.items():
            read = path.resolve()
            if read in (out, *out.parents) or out in read.parents:
                raise ConfigError(f"{written} overlaps {role}_path {path}", error_class="config.output_collision")
    return tuple(remap_keys(load_checkpoint(path), getattr(run.remap, role)) for role, path in paths.items())


def cmd_merge(config_path: str, overrides: list[str], output: str | None, threads: int | None) -> int:
    run = load_config(config_path, overrides, output_path=output or None, threads=threads)
    if not run.output_path:
        raise ConfigError("config field 'output_path' is required", error_class="config.missing_path")
    out_path = Path(run.output_path)
    report_path = Path(_output_file("report_path", run.report_path or f"{out_path}.report.json"))
    if report_path.name.endswith((".safetensors", ".index.json")):
        raise ConfigError(f"report_path {report_path} is named like a tensor file or index manifest",
                          error_class="config.output_collision")

    base, ml, anchor = _load_inputs(run, config_path, [out_path, report_path])

    with staged_files() as stage:
        report = merge_checkpoint(base, ml, anchor, run.merge, out_path, threads=run.threads,
                                  shard_limit=run.shard_limit)
        report.config = run
        stage(report_path).write_text(json.dumps(report.to_dict(), indent=2) + "\n")

    summary = report.summary
    mean = "-" if summary.mean_omega_ml is None else f"{summary.mean_omega_ml:.4f}"
    print(
        f"merged {summary.merged_count} tensors, passed through {summary.pass_through_count}, "
        f"mean omega_ml {mean} -> {out_path}"
    )
    return 0


def cmd_diagnose(config_path: str, overrides: list[str], threads: int | None) -> int:
    run = load_config(config_path, overrides, threads=threads)
    cfg = run.diagnose
    exports = [(export, _output_file(f"diagnose.{key}", getattr(cfg, key)))
               for export, key in ((export_csv, "csv_path"), (export_json, "json_path")) if getattr(cfg, key)]
    if not exports:
        raise ConfigError("diagnose config needs csv_path and/or json_path", error_class="config.missing_path")
    base, ml, anchor = _load_inputs(run, config_path, [path for _, path in exports])
    rows = diagnose(base, ml, anchor, cfg.schema, cfg.epsilon, run.threads)
    # both tables appear together or neither replaces an earlier one
    with staged_files():
        for export, path in exports:
            export(rows, path)
    print(f"wrote {len(rows)} rows -> {', '.join(str(path) for _, path in exports)}")
    return 0


def cmd_inspect(checkpoint_path: str) -> int:
    ckpt = load_checkpoint(checkpoint_path)
    for name, rec in ckpt.tensors.items():
        shape = "x".join(map(str, rec.shape)) or "scalar"
        print(f"{name}  {shape}  {rec.dtype.value}")
    print(f"{len(ckpt)} tensors, {ckpt.total_parameters} parameters")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dimerge",
                                     description="Checkpoint merging and residual diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, text in (("merge", "merge a multilingual residual into a multimodal anchor"),
                          ("diagnose", "export residual-heterogeneity tables")):
        run_p = sub.add_parser(command, help=text)
        run_p.add_argument("--config", required=True, help="path to a JSON run config")
        run_p.add_argument("--set", dest="overrides", action="append", default=[],
                           metavar="dotted.key=value", help="override a config leaf (repeatable)")
        run_p.add_argument("--threads", type=int, default=None, help="worker pool size (default: usable CPUs)")
    sub.choices["merge"].add_argument("--output", default=None, help="override output_path")

    inspect_p = sub.add_parser("inspect", help="list tensors in a checkpoint")
    inspect_p.add_argument("checkpoint", help="tensor file, index manifest, or directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        if args.command == "merge":
            return cmd_merge(args.config, args.overrides, args.output, args.threads)
        if args.command == "diagnose":
            return cmd_diagnose(args.config, args.overrides, args.threads)
        return cmd_inspect(args.checkpoint)
    except DimergeError as exc:
        print(f"error[{exc.error_class}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[io.os]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
