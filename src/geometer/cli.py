"""Config-driven command-line driver.

Subcommands: ``prepare`` (write the split manifest), ``pretrain`` (base-stage
training per seed), ``stream`` (run all streaming sessions, chaining teacher
to student, resumable from any session checkpoint), ``report`` (aggregate
metrics across seeds), ``export`` (dump embeddings and prototypes for offline
projection).  ``prepare``, ``pretrain`` and ``stream`` first check that the
manifest's train pools can feed the episode sampler at every stage.

Every command is deterministic given the config and seed.  Failures exit
nonzero with a single machine-parsable line on stderr:
``error kind=<ExceptionName> message="..."``.  The ``GEOMETER_LOG``
environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from .checkpoint import (CheckpointError, arrays_to_model, load_tensors, model_to_arrays,
                         save_tensors)
from .config import ExperimentConfig, parse_config
from .episodes import PoolTooSmallError, check_pools
from .fileio import replacing
from .graph_store import (build_session_stream, load_graph, load_session_stream,
                          save_manifest)
from .runner import ModelState, evaluate_session, pretrain, run_stream_session

log = logging.getLogger(__name__)

__all__ = ["main", "cmd_prepare", "cmd_pretrain", "cmd_stream", "cmd_report",
           "export_embeddings", "CliError"]


class CliError(Exception):
    pass


# ---------------------------------------------------------------------------
# shared plumbing

def _require(path, what: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise CliError(f"{what} not found: {p}")
    return p


def _load_stream(cfg: ExperimentConfig):
    g = load_graph(_require(cfg.dataset_dir, "dataset directory"))
    stream = load_session_stream(g, _require(cfg.manifest, "split manifest"))
    return g, stream


def _check_pools(cfg: ExperimentConfig, stream) -> None:
    """Refuse a stream whose train pools cannot feed its episodes, before any
    training or write, naming the manifest."""
    try:
        check_pools(stream, cfg.sampler())
    except PoolTooSmallError as exc:
        raise PoolTooSmallError(f"{cfg.manifest}: {exc}") from None


def _checkpoint_path(cfg: ExperimentConfig, seed: int, session: int) -> Path:
    return Path(cfg.run_dir) / f"seed{seed}_session{session}.gfsp"


def _metrics_path(cfg: ExperimentConfig, seed: int) -> Path:
    return Path(cfg.run_dir) / f"metrics_seed{seed}.jsonl"


def _append_record(path: Path, record: dict) -> None:
    """Add one record line to a metrics log.  The log is rewritten whole, so a
    failed write leaves the previous log and no partial line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    previous = path.read_text() if path.exists() else ""
    with replacing(path) as fh:
        fh.write(previous + json.dumps(record, sort_keys=True) + "\n")


def _save_model(cfg: ExperimentConfig, model: ModelState, seed: int) -> Path:
    path = _checkpoint_path(cfg, seed, model.session_index)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_tensors(path, model_to_arrays(model, seed))
    return path


def _load_model(path) -> tuple:
    """The model and stored seed (None if absent) of a checkpoint file."""
    path = _require(path, "checkpoint")
    arrays = load_tensors(path)
    try:
        return arrays_to_model(arrays)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def _require_session_classes(path, model: ModelState, stream) -> None:
    """A loaded model's prototypes must be those of its session's classes."""
    held, expected = list(model.prototypes.class_ids), list(stream.classes_at(model.session_index))
    if held != expected:
        raise CheckpointError(
            f"{path}: tensor 'prototypes/classes' holds {held}, expected the classes "
            f"of session {model.session_index}: {expected}")


# ---------------------------------------------------------------------------
# commands

def _select_classes(labels: np.ndarray, cfg: ExperimentConfig):
    """Base classes are the most-labeled ones unless given explicitly; the
    novel classes are shuffled under the split seed and chunked per session."""
    needed = cfg.num_sessions * cfg.novel_per_session
    if cfg.base_classes or cfg.novel_classes:
        if not (cfg.base_classes and cfg.novel_classes):
            raise CliError("base_classes and novel_classes must be given together")
        base = list(cfg.base_classes)
        novel = list(cfg.novel_classes)
        if len(novel) != needed:
            raise CliError(
                f"novel_classes lists {len(novel)} classes, expected "
                f"{cfg.num_sessions} x {cfg.novel_per_session} = {needed}")
    else:
        classes, counts = np.unique(labels[labels >= 0], return_counts=True)
        if len(classes) < cfg.base_class_count + needed:
            raise CliError(
                f"dataset has {len(classes)} classes, config wants "
                f"{cfg.base_class_count} base + {needed} novel")
        order = sorted(range(len(classes)), key=lambda i: (-counts[i], classes[i]))
        ranked = [int(classes[i]) for i in order]
        base = ranked[:cfg.base_class_count]
        rest = ranked[cfg.base_class_count:]
        rng = np.random.default_rng([cfg.split_seed, 7901])
        novel = [rest[i] for i in rng.permutation(len(rest))[:needed]]
    sessions = [novel[i:i + cfg.novel_per_session]
                for i in range(0, needed, cfg.novel_per_session)]
    return base, sessions


def cmd_prepare(cfg: ExperimentConfig) -> Path:
    # the manifest depends only on the labels: the features are checked but
    # not kept, and the stream cuts no snapshot
    g = load_graph(_require(cfg.dataset_dir, "dataset directory"), defer_features=True)
    base, sessions = _select_classes(g.labels, cfg)
    stream = build_session_stream(g, base, sessions, cfg.k_shot, cfg.split_seed)
    _check_pools(cfg, stream)
    out = Path(cfg.manifest)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_manifest(stream, out)
    log.info("manifest written to %s (%d base classes, %d sessions)",
             out, len(base), len(sessions))
    return out


def _run_stage(cfg: ExperimentConfig, stream, seed: int, stage) -> tuple:
    """Train one stage, ``stage()``, then save the model it returns, evaluate
    it on the stage's own embeddings and add its metrics record.  Returns the
    model and its checkpoint path."""
    started = time.perf_counter()
    model = stage()
    seconds = time.perf_counter() - started
    path = _save_model(cfg, model, seed)
    session = model.session_index
    started = time.perf_counter()
    metrics = evaluate_session(model, stream, session, embeddings=model.embeddings)
    seconds += time.perf_counter() - started
    _append_record(_metrics_path(cfg, seed), {
        "session": session, "mean": metrics.accuracy_mean,
        "per_class": {str(k): v for k, v in sorted(metrics.per_class.items())},
        "seconds": seconds, "seed": seed, "mode": cfg.mode})
    log.info("seed %d session %d accuracy %.4f (%.1fs)", seed, session,
             metrics.accuracy_mean, seconds)
    return model, path


def cmd_pretrain(cfg: ExperimentConfig, seed_override: int | None = None) -> list:
    _, stream = _load_stream(cfg)
    _check_pools(cfg, stream)
    paths = []
    for seed in ([seed_override] if seed_override is not None else cfg.seeds):
        _, saved = _run_stage(cfg, stream, seed, lambda: pretrain(stream, cfg, seed))
        paths.append(saved)
    return paths


def cmd_stream(cfg: ExperimentConfig, seed_override: int | None = None,
               checkpoint: str | None = None) -> list:
    _, stream = _load_stream(cfg)
    _check_pools(cfg, stream)
    if checkpoint is not None:
        starts = [(checkpoint, seed_override)]
    else:
        starts = [(_require(_checkpoint_path(cfg, seed, 0), "checkpoint"), seed)
                  for seed in ([seed_override] if seed_override is not None else cfg.seeds)]

    paths = []
    for path, seed in starts:
        # loaded only when its seed runs: no start model outlives its first session
        model, stored_seed = _load_model(path)
        seed = seed if seed is not None else stored_seed
        if seed is None:
            raise CliError("checkpoint lacks a seed; pass --seed")
        if model.session_index >= stream.num_sessions:
            raise CliError(
                f"checkpoint is at session {model.session_index}, but the manifest "
                f"has only {stream.num_sessions} sessions")
        _require_session_classes(path, model, stream)
        for session in range(model.session_index + 1, stream.num_sessions + 1):
            # hand the model over with no reference left here, so the session
            # frees the teacher's weights once it has cloned the student
            held = [model]
            del model
            model, saved = _run_stage(
                cfg, stream, seed,
                lambda: run_stream_session(held.pop(), stream, session, cfg, seed))
            paths.append(saved)
    return paths


class ReportError(Exception):
    pass


def load_run_records(cfg: ExperimentConfig) -> list:
    """Every metrics record under the run directory.

    A record's ``seed`` and ``session`` must be non-negative JSON integers and
    its ``mean`` a finite number in [0, 1].  A log is ambiguous, and rejected
    at the line that makes it so, when two records share a (seed, session) or
    the records mix modes: a resumed run belongs in a fresh run directory.
    """
    run_dir = _require(cfg.run_dir, "run directory")
    records, seen = [], set()
    for path in sorted(run_dir.glob("metrics_seed*.jsonl")):
        for ln, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ReportError(f"{path}:{ln}: bad metrics record ({exc})") from None
            if not isinstance(rec, dict):
                raise ReportError(f"{path}:{ln}: metrics record is not a JSON object")
            missing = [k for k in ("seed", "session", "mean") if k not in rec]
            if missing:
                raise ReportError(f"{path}:{ln}: metrics record lacks {', '.join(missing)}")
            for name in ("seed", "session"):
                if type(rec[name]) is not int or rec[name] < 0:
                    raise ReportError(f"{path}:{ln}: {name} must be a non-negative integer, "
                                      f"got {rec[name]!r}")
            if type(rec["mean"]) not in (int, float) or not 0 <= rec["mean"] <= 1:
                raise ReportError(f"{path}:{ln}: mean must be a number in [0, 1], "
                                  f"got {rec['mean']!r}")
            key = (rec["seed"], rec["session"])
            if key in seen:
                raise ReportError(f"{path}:{ln}: second record for seed {key[0]} "
                                  f"session {key[1]}")
            if records and rec.get("mode") != records[0].get("mode"):
                raise ReportError(f"{path}:{ln}: mode {rec.get('mode')!r} differs from "
                                  f"mode {records[0].get('mode')!r} of the first record")
            seen.add(key)
            records.append(rec)
    if not records:
        raise ReportError(f"no metrics records under {run_dir}")
    return records


def summarize_records(records: list) -> dict:
    """Per-session mean and population std of per-seed accuracies."""
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec["seed"], {})[rec["session"]] = rec["mean"]
    session_sets = {seed: tuple(sorted(sessions)) for seed, sessions in by_seed.items()}
    distinct = set(session_sets.values())
    if len(distinct) > 1:
        raise ReportError(f"inconsistent session counts across seeds: {session_sets}")
    sessions = sorted(next(iter(distinct)))
    summary = {"seeds": sorted(by_seed), "sessions": []}
    for session in sessions:
        values = np.array([by_seed[seed][session] for seed in sorted(by_seed)])
        summary["sessions"].append({
            "session": session,
            "mean": float(values.mean()),
            "std": float(values.std()),
            "n_seeds": len(values),
        })
    return summary


def format_report(summary: dict) -> str:
    lines = [f"{'session':>8}  {'accuracy':>10}  {'std':>8}  {'seeds':>6}"]
    for row in summary["sessions"]:
        lines.append(f"{row['session']:>8d}  {row['mean']:>10.4f}  "
                     f"{row['std']:>8.4f}  {row['n_seeds']:>6d}")
    return "\n".join(lines)


def cmd_report(cfg: ExperimentConfig, out: str | None = None) -> dict:
    summary = summarize_records(load_run_records(cfg))
    print(format_report(summary))
    out_path = Path(out) if out else Path(cfg.run_dir) / "report.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with replacing(out_path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("report written to %s", out_path)
    return summary


def export_embeddings(cfg: ExperimentConfig, checkpoint: str, session: int | None,
                      out_path) -> Path:
    """Write test-pool embeddings and prototype coordinates as TSV rows.

    Row shapes: ``node <node_id> <class_id> <v0> ...`` and
    ``prototype <class_id> <v0> ...``; floats carry 9 significant digits so a
    parse-back recovers float32 exactly.
    """
    model, _ = _load_model(checkpoint)
    _, stream = _load_stream(cfg)
    if session is None:
        session = model.session_index
    if not 0 <= session <= stream.num_sessions:
        raise CliError(f"unknown session {session}; stream has 0..{stream.num_sessions}")
    if session != model.session_index:
        raise CliError(f"checkpoint is for session {model.session_index}, asked for {session}")
    _require_session_classes(checkpoint, model, stream)
    g = stream.snapshots[session]
    from .backbone import encode
    emb = encode(model.backbone.detached(), g).data
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with replacing(out) as fh:
        for cls, pool in stream.test_pools(session).items():
            for node, row in zip(pool, emb[g.rows_of(pool)]):
                vec = "\t".join(f"{v:.9g}" for v in row)
                fh.write(f"node\t{int(node)}\t{int(cls)}\t{vec}\n")
        for cls in model.prototypes.class_ids:
            row = model.prototypes.vectors.data[model.prototypes.index_of(cls)]
            vec = "\t".join(f"{v:.9g}" for v in row)
            fh.write(f"prototype\t{int(cls)}\t{vec}\n")
    log.info("embeddings for session %d written to %s", session, out)
    return out


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geometer",
        description="Few-shot class-incremental node classification experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs in (("prepare", ()), ("pretrain", ("seed",)),
                        ("stream", ("seed", "checkpoint")),
                        ("report", ("out",)),
                        ("export", ("checkpoint", "session", "out"))):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        if "seed" in needs:
            p.add_argument("--seed", type=int, default=None)
        if "checkpoint" in needs:
            required = name == "export"
            p.add_argument("--checkpoint", default=None, required=required)
        if "session" in needs:
            p.add_argument("--session", type=int, default=None)
        if "out" in needs:
            required = name == "export"
            p.add_argument("--out", default=None, required=required)
    return parser


def _configure_logging():
    level = os.environ.get("GEOMETER_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "prepare":
            cmd_prepare(cfg)
        elif args.command == "pretrain":
            cmd_pretrain(cfg, args.seed)
        elif args.command == "stream":
            cmd_stream(cfg, args.seed, args.checkpoint)
        elif args.command == "report":
            cmd_report(cfg, args.out)
        elif args.command == "export":
            export_embeddings(cfg, args.checkpoint, args.session, args.out)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        message = str(exc).replace('"', "'")
        print(f'error kind={type(exc).__name__} message="{message}"', file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
