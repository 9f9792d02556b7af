"""The metrics record and the report: the two files a run's scores live in.

``<run_dir>/metrics_seed<seed>.jsonl`` holds one record per trained stage of
seed ``<seed>``, in training order, one sorted-key JSON object per line:
``seed`` and ``session`` (non-negative integers), ``mean`` (the session's
accuracy over its test pools, a number in [0, 1]), ``per_class`` (class id
as a string -> that class's accuracy, ids ascending), ``seconds`` (the
stage's training plus evaluation time) and ``mode`` (the config's
``mode``).  A record is added by rewriting the log whole, so a failed write
leaves the previous log and no partial line.

``report.json`` (by default in the run directory) holds the summary of a
run directory's logs, with sorted keys and an indent of 2: ``seeds``, the
seeds in ascending order, and ``sessions``, one object per session in
ascending order with ``session``, ``mean`` and ``std`` (the mean and
population std of the seeds' ``mean``) and ``n_seeds``.

``append_record``, ``load_records`` and ``summarize`` are the only code that
builds, reads or checks a record, and ``write_report`` the only code that
writes a report.  ``load_records`` reads every log of a run directory and
raises ``ReportError``, naming the log and line, at the first record that is
not a JSON object, lacks ``seed``, ``session`` or ``mean``, holds a value
out of its type or range, repeats a (seed, session), or has a ``mode``
other than the first record's: a resumed run belongs in a fresh run
directory.  Blank lines are skipped.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .fileio import replacing
from .runner import SessionMetrics

__all__ = ["ReportError", "append_record", "load_records", "summarize", "format_report",
           "write_report"]


class ReportError(Exception):
    pass


def append_record(run_dir, seed: int, metrics: SessionMetrics, seconds: float,
                  mode: str) -> None:
    """Add the record of one evaluated stage to the seed's log."""
    path = Path(run_dir) / f"metrics_seed{seed}.jsonl"
    record = {"session": metrics.session_index, "mean": metrics.accuracy_mean,
              "per_class": {str(k): v for k, v in sorted(metrics.per_class.items())},
              "seconds": seconds, "seed": seed, "mode": mode}
    path.parent.mkdir(parents=True, exist_ok=True)
    previous = path.read_text() if path.exists() else ""
    with replacing(path) as fh:
        fh.write(previous + json.dumps(record, sort_keys=True) + "\n")


def load_records(run_dir) -> list:
    """Every record of the logs in ``run_dir``, checked as the module says."""
    run_dir = Path(run_dir)
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


def summarize(records: list) -> dict:
    """The report of ``records``: per session, the mean and population std of
    the seeds' accuracies.  Every seed must hold the same sessions."""
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


def write_report(summary: dict, run_dir, out=None) -> Path:
    """Write ``summary`` to ``out``, by default ``report.json`` in ``run_dir``,
    replacing the previous report only once the new one is whole."""
    out_path = Path(out) if out else Path(run_dir) / "report.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with replacing(out_path) as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_path
