"""One repetition of the user path in a fresh process.

Runs ``cmd_prepare`` (several times, for a steady set-up time), then
``cmd_pretrain`` and ``cmd_stream`` for one seed, exactly as the ``geometer``
command line would, and writes the timings as JSON.  With ``--trace 1`` it
also wraps the layer functions and writes their spans and per-layer metrics.

Usage: python3 perfbench/worker.py --config exp.cfg --seed 0 --prepares 5
       --trace 0 --out result.json [--spans spans.jsonl]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import geometer  # noqa: E402
import geometer.cli  # noqa: E402
from geometer.config import parse_config  # noqa: E402

from tracer import EpisodeClock, Tracer  # noqa: E402


def peak_rss_mib() -> float:
    """Peak resident memory of this process since it started.

    Linux carries ``getrusage``'s ``ru_maxrss`` across exec, so a worker
    spawned by a larger parent would report the parent's peak; the kernel's
    per-address-space high-water mark ``VmHWM`` has no such carry-over.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--prepares", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    cfg = parse_config(args.config)
    cli = geometer.cli
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(geometer)
    clock = EpisodeClock(geometer.runner, tracer.start_episode if tracer else None)

    commands = [("prepare", "cli.prepare", lambda: cli.cmd_prepare(cfg))] * args.prepares
    commands += [("pretrain", "cli.pretrain", lambda: cli.cmd_pretrain(cfg, args.seed)),
                 ("stream", "cli.stream", lambda: cli.cmd_stream(cfg, args.seed))]
    result = {"setup_s": [], "pretrain_s": None, "stream_s": None,
              "commands": 0, "error": None}
    for command, span, call in commands:
        result["commands"] += 1
        started = time.perf_counter()
        try:
            if tracer is not None:
                tracer.span(span, call)
            else:
                call()
        except Exception as exc:  # noqa: BLE001 - a failed command is a measured outcome
            result["error"] = f"{command}: {type(exc).__name__}: {exc}"
            traceback.print_exc()
            break
        elapsed = time.perf_counter() - started
        if command == "prepare":
            result["setup_s"].append(elapsed)
        else:
            result[f"{command}_s"] = elapsed

    result["pretrain_episode_ms"], result["finetune_episode_ms"] = clock.intervals_ms()
    result["peak_rss_mb"] = peak_rss_mib()
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.write_spans(args.spans)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
