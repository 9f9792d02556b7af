"""Benchmark of geometer's user path: prepare -> pretrain -> stream, one seed.

    python3 perfbench/run.py --workload coraml_stream --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0    # every workload, untraced then traced

A run generates the workload's dataset from ``--seed``, then repeats the user
path in fresh worker processes (``perfbench/worker.py``).  The number of
repetitions is fixed by ``--seconds`` and the workload, so two commits measured
with the same arguments do the same work.  Every repetition's outputs are
checked: a command that raises, a non-finite loss (it raises), a session
accuracy below chance plus a margin, or a repetition whose accuracies or
checkpoint bytes differ from the first one's, counts as failed.

With ``--trace 0`` the last line of output holds the end-to-end metrics
(medians over repetitions; episode percentiles over the pooled samples).
With ``--trace 1`` repetitions alternate untraced and traced; the last line
holds the per-layer metrics of the traced ones and ``trace_overhead_frac``.
Results and the spans of the last traced repetition go to ``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
from graphgen import CORA_ML, MANYCLASS, GraphShape, make_cora_like
from tracer import EXACT_COUNTS, LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
OUT = HERE / "_out"
TIME_LIMIT_S = 170.0
CHANCE_MARGIN = 0.1      # a session's accuracy must exceed 1/classes by this much
# On a shared 2-CPU machine two BLAS threads gave the same wall time as one,
# but made it swing with the load of other tenants.
BLAS_THREADS = 1
PREPARES = 5             # cmd_prepare calls per untraced worker; setup_s is their median


@dataclass(frozen=True)
class Workload:
    why: str
    config: dict            # ExperimentConfig fields, paths excluded
    shape: GraphShape | None  # Cora-shaped graph, or None for the README demo graph
    nominal_rep_s: float    # one repetition's wall time when the workload was defined, 2 CPUs


_CORA_MODEL = dict(hidden_dim=512, embedding_dim=64, class_attention_heads=4,
                   k_max=10, k_qry=10, old_query_bias=0.7,
                   lambda_p=1.0, lambda_u=1.0, lambda_s=1.0, lambda_kd=1.0, tau=2.0,
                   lr_pretrain=0.001, lr_finetune=0.0001, k_shot=5, split_seed=0)

# Model and split settings follow configs/cora_ml.cfg, configs/cora_full.cfg and
# configs/synthetic_demo.cfg; episode counts of the Cora shapes are cut so that
# a repetition takes seconds.
WORKLOADS = {
    "coraml_stream": Workload(
        why="Cora-ML shape, sparse features: backbone forward/backward and Adam "
            "over the 512x2879 layer-0 weight carry each episode",
        config=dict(_CORA_MODEL, base_class_count=2, novel_per_session=1, num_sessions=5,
                    episodes_pretrain=30, episodes_finetune=6),
        shape=CORA_ML, nominal_rep_s=14.0),
    "manyclass_stream": Workload(
        why="Cora-Full class structure (70 classes, 10 five-way sessions): prototypes, "
            "sampling and losses grow with the class count while encode stays flat",
        config=dict(_CORA_MODEL, base_class_count=20, novel_per_session=5, num_sessions=10,
                    episodes_pretrain=16, episodes_finetune=4),
        shape=MANYCLASS, nominal_rep_s=19.0),
    "demo_stream": Workload(
        why="README quick start, dense tiny arrays: per-op Python and autodiff "
            "overhead, checkpoints and evaluation carry the time",
        config=dict(base_class_count=2, novel_per_session=1, num_sessions=4, k_shot=5,
                    split_seed=0, hidden_dim=32, embedding_dim=16, class_attention_heads=4,
                    k_max=8, k_qry=10, episodes_pretrain=120, episodes_finetune=50),
        shape=None, nominal_rep_s=3.5),
}

E2E_UNITS = {"setup_s": "s", "pretrain_s": "s", "stream_s": "s", "run_s": "s",
             "pretrain_episode_ms.p50": "ms", "pretrain_episode_ms.p90": "ms",
             "finetune_episode_ms.p50": "ms", "finetune_episode_ms.p90": "ms",
             "peak_rss_mb": "MiB"}


def environment(nproc: int) -> dict:
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": nproc, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "blas_threads": BLAS_THREADS,
            "numba": importlib.util.find_spec("numba") is not None}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def write_dataset(shape: GraphShape | None, directory: Path, seed: int) -> None:
    from geometer.graph_store import make_graph, save_dataset
    from geometer.synth import write_synthetic_dataset
    if shape is None:
        write_synthetic_dataset(directory, classes=6, per_class=40, feature_dim=24,
                                p_in=0.2, p_out=0.02, center_scale=1.6, noise=1.1, seed=seed)
    else:
        save_dataset(make_graph(*make_cora_like(shape, seed)), directory)


def tail_percentile(samples, q: float = 90.0):
    """(value, percentile used): the q-th percentile, lowered until at least
    ten samples lie above it, but not below the median."""
    n = len(samples)
    if n == 0:
        return float("nan"), q
    q = max(50.0, min(q, 100.0 * (n - 11) / max(1, n - 1)))
    return float(numpy.percentile(samples, q)), q


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One benchmark run: its repetitions, checks and metrics."""

    def __init__(self, name: str, seed: int, seconds: int, trace: bool):
        self.name, self.seed, self.trace = name, seed, trace
        self.workload = WORKLOADS[name]
        self.reps = max(2, round(seconds / self.workload.nominal_rep_s))
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.results = []           # (traced, worker result) of repetitions that ran
        self.reference = None       # (accuracies, checkpoint digests) of the first repetition
        self.final_acc = None

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def execute(self) -> None:
        from geometer.config import ExperimentConfig, write_config
        started = time.perf_counter()
        work = WORK / f"{self.name}-seed{self.seed}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        env = worker_env()
        OUT.mkdir(parents=True, exist_ok=True)
        try:
            write_dataset(self.workload.shape, work / "data", self.seed)
            for rep in range(self.reps):
                traced = self.trace and rep % 2 == 1
                rep_dir = work / f"rep{rep}"
                cfg = ExperimentConfig(dataset_dir=str(work / "data"),
                                       manifest=str(rep_dir / "manifest.json"),
                                       run_dir=str(rep_dir / "runs"), seeds=(self.seed,),
                                       **self.workload.config)
                rep_dir.mkdir(parents=True)
                write_config(cfg, rep_dir / "exp.cfg")
                budget = TIME_LIMIT_S - (time.perf_counter() - started)
                result = self._spawn(rep_dir, traced, env, budget)
                if result is not None:
                    self.results.append((traced, result))
                    self._check_outputs(cfg)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _spawn(self, rep_dir: Path, traced: bool, env, budget: float):
        # a traced repetition runs the user path once, so its counts are per pipeline
        prepares = 1 if traced else PREPARES
        expected = prepares + 2
        out = rep_dir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--config", str(rep_dir / "exp.cfg"),
               "--seed", str(self.seed), "--prepares", str(prepares),
               "--trace", str(int(traced)), "--out", str(out)]
        if traced:
            cmd += ["--spans", str(OUT / f"{self.name}-seed{self.seed}-spans.jsonl")]
        try:
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, budget))
        except subprocess.TimeoutExpired:
            for _ in range(expected):
                self.check(False, "worker timed out")
            return None
        if proc.returncode != 0 or not out.is_file():
            for _ in range(expected):
                self.check(False, f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        result = json.loads(out.read_text())
        for i in range(expected):
            self.check(i < result["commands"] - (result["error"] is not None),
                       f"command failed: {result['error']}")
        return result if result["error"] is None else None

    def _check_outputs(self, cfg) -> None:
        run_dir = Path(cfg.run_dir)
        log = run_dir / f"metrics_seed{self.seed}.jsonl"
        records = [json.loads(line) for line in log.read_text().splitlines()] \
            if log.is_file() else []
        accuracies = []
        for session in range(cfg.num_sessions + 1):
            rec = [r for r in records if r["session"] == session]
            acc = rec[0]["mean"] if len(rec) == 1 else float("nan")
            classes = cfg.base_class_count + session * cfg.novel_per_session
            self.check(math.isfinite(acc) and acc >= 1.0 / classes + CHANCE_MARGIN,
                       f"session {session} accuracy {acc} below chance 1/{classes} "
                       f"+ {CHANCE_MARGIN}")
            accuracies.append(acc)
        self.final_acc = accuracies[-1]
        digests = {p.name: _file_digest(p) for p in sorted(run_dir.glob("*.gfsp"))}
        if self.reference is None:
            self.reference = (accuracies, digests)
        else:
            self.check((accuracies, digests) == self.reference,
                       "repetition differs from the first in accuracies or checkpoint bytes")

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> tuple:
        runs = [r for traced, r in self.results if not traced]
        med = statistics.median
        pre = [x for r in runs for x in r["pretrain_episode_ms"]]
        fine = [x for r in runs for x in r["finetune_episode_ms"]]
        pre90, pre_q = tail_percentile(pre)
        fine90, fine_q = tail_percentile(fine)
        metrics = {
            "setup_s": med(med(r["setup_s"]) for r in runs),
            "pretrain_s": med(r["pretrain_s"] for r in runs),
            "stream_s": med(r["stream_s"] for r in runs),
            "run_s": med(_run_s(r) for r in runs),
            "pretrain_episode_ms.p50": med(pre),
            "pretrain_episode_ms.p90": pre90,
            "finetune_episode_ms.p50": med(fine),
            "finetune_episode_ms.p90": fine90,
            "peak_rss_mb": med(r["peak_rss_mb"] for r in runs),
        }
        notes = {"pretrain_episode_ms.p90": f"p{pre_q:.1f} of {len(pre)} samples",
                 "finetune_episode_ms.p90": f"p{fine_q:.1f} of {len(fine)} samples",
                 "pretrain_episode_ms.p50": f"{len(pre)} samples",
                 "finetune_episode_ms.p50": f"{len(fine)} samples",
                 "setup_s": f"{sum(len(r['setup_s']) for r in runs)} samples"}
        return metrics, notes

    def per_layer(self) -> dict:
        traced = [r for t, r in self.results if t]
        plain = [r for t, r in self.results if not t]
        metrics = {key: statistics.median(r["layers"][key] for r in traced)
                   for key in traced[0]["layers"]}
        if len(traced) > 1:
            self.check(all(r["layers"][k] == traced[0]["layers"][k]
                           for r in traced for k in EXACT_COUNTS),
                       "per-layer counts differ between repetitions of one seed")
        metrics["trace_overhead_frac"] = (statistics.median(_single_pass_s(r) for r in traced)
                                          / statistics.median(_single_pass_s(r) for r in plain)
                                          - 1.0)
        return metrics


def _run_s(result: dict) -> float:
    return statistics.median(result["setup_s"]) + result["pretrain_s"] + result["stream_s"]


def _single_pass_s(result: dict) -> float:
    """Wall time of the first prepare plus pretrain and stream, as a traced
    repetition runs them."""
    return result["setup_s"][0] + result["pretrain_s"] + result["stream_s"]


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload, print its report lines, and return the result record."""
    run = Run(name, seed, seconds, trace)
    run.execute()
    print(f"# {name} seed {seed}: {run.reps} repetitions, trace {int(trace)}")
    metrics, units = {}, {}
    if any(not t for t, _ in run.results):
        e2e, notes = run.end_to_end()
        for key, value in e2e.items():
            print(f"{key:32s} {value:14.6f} {E2E_UNITS[key]:6s} {notes.get(key, '')}")
        if not trace:
            metrics, units = e2e, E2E_UNITS
    if trace and any(t for t, _ in run.results) and any(not t for t, _ in run.results):
        layers = run.per_layer()
        moves = {key: (unit, why) for key, unit, why in LAYER_METRICS}
        moves["trace_overhead_frac"] = ("ratio", "(traced over untraced run_s, minus 1)")
        for key, value in layers.items():
            unit, why = moves[key]
            print(f"{key:32s} {value:14.6f} {unit:6s} moves {why}")
        metrics, units = layers, {k: moves[k][0] for k in layers}
    print(f"quality.final_acc {run.final_acc}")
    print(f"failed_frac {run.failed / max(1, run.attempted):.6f} "
          f"({run.failed} of {run.attempted} commands and checks)")
    for problem in run.problems[:10]:
        print(f"problem: {problem}")
    return {"workload": name, "seed": seed, "trace": int(trace), "reps": run.reps,
            "attempted": run.attempted, "failed": run.failed, "problems": run.problems,
            "quality.final_acc": run.final_acc,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "geometer" / "cli.py").is_file():
        print(f"error: geometer sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = environment(len(os.sched_getaffinity(0)))
    print(f"env {json.dumps(env, sort_keys=True)}")
    if args.workload == "all":
        plan = [(name, trace) for name in WORKLOADS for trace in (False, True)]
    else:
        plan = [(args.workload, bool(args.trace))]
    records = []
    for name, trace in plan:
        record = measure(name, args.seed, args.seconds, trace)
        record["env"] = env
        (OUT / f"{name}-seed{args.seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n")
        records.append(record)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    if not metrics:
        print("error: no repetition finished; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
