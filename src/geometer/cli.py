"""Config-driven command-line driver.

Subcommands: ``prepare`` (write the split manifest), ``pretrain`` (base-stage
training per seed), ``stream`` (run all streaming sessions, chaining teacher
to student, resumable from any session checkpoint), ``report`` (aggregate
metrics across seeds), ``export`` (dump embeddings and prototypes for offline
projection).  Every command that reads the dataset loads it whole, through
the same ``load_graph`` call.  ``prepare``, ``pretrain`` and ``stream`` first
check that the manifest's train pools can feed the episode sampler at every
stage.

Every command is deterministic given the config and seed, on one machine's
CPU kernels and BLAS thread count (see README).  Failures exit nonzero with
a single machine-parsable line on stderr:
``error kind=<ExceptionName> message="..."``.  The ``GEOMETER_LOG``
environment variable sets the log level.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import records
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
    g = load_graph(_require(cfg.dataset_dir, "dataset directory"))
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
    records.append_record(cfg.run_dir, seed, metrics, seconds, cfg.mode)
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


def cmd_report(cfg: ExperimentConfig, out: str | None = None) -> dict:
    summary = records.summarize(records.load_records(_require(cfg.run_dir, "run directory")))
    print(records.format_report(summary))
    out_path = records.write_report(summary, cfg.run_dir, out)
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
