"""Golden digests: refactors must leave every trained value byte-identical.

Six short pipelines (``prepare`` -> ``pretrain`` -> ``stream`` for one seed)
each run in a subprocess with one BLAS thread, since the layer-0 attention
scores go through threaded BLAS products whose rounding follows the thread
count.  Each run reports SHA-256 digests of its manifest, every checkpoint
file and each tensor in it, the metrics records with ``seconds`` stripped, and
the value and gradients of one seeded training episode.  A failure names the
run, and for each checkpoint file that changed, the tensors that moved: a
change to the file format alone moves file digests and no weight.  ``tests/fixtures/golden.json`` holds the
expected digests together with the numpy, scipy and BLAS versions that
produced them; on other versions the test fails and names both.

Regenerate the fixture (and say in the change log which digests moved and
why) with::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE = HERE / "fixtures" / "golden.json"

# the README demo workload of perfbench/run.py, at two seeds
_DEMO_DATA = dict(classes=6, per_class=40, feature_dim=24, p_in=0.2, p_out=0.02,
                  center_scale=1.6, noise=1.1)
_DEMO_CONFIG = dict(base_class_count=2, novel_per_session=1, num_sessions=4, k_shot=5,
                    split_seed=0, hidden_dim=32, embedding_dim=16, class_attention_heads=4,
                    k_max=8, k_qry=10, episodes_pretrain=120, episodes_finetune=50)
# a small Cora-shaped graph: sparse binary features take the CSR layer-0 path
_CORA_CONFIG = dict(base_class_count=2, novel_per_session=1, num_sessions=3, k_shot=5,
                    split_seed=0, hidden_dim=64, embedding_dim=16, class_attention_heads=4,
                    k_max=10, k_qry=10, episodes_pretrain=20, episodes_finetune=6)
# the class structure of perfbench's manyclass_stream: 20 base classes and
# five-way sessions, on a small graph with a narrow hidden layer.  Its
# 64-wide class-attention matrices and prototypes take BLAS products that
# the 16-wide runs above do not, so it fails when checkpoint loads hand out
# unaligned arrays (numpy computes those products in another order)
_MANYCLASS_CONFIG = dict(base_class_count=20, novel_per_session=5, num_sessions=2, k_shot=5,
                         split_seed=0, hidden_dim=32, embedding_dim=64, class_attention_heads=4,
                         k_max=10, k_qry=10, episodes_pretrain=8, episodes_finetune=4)
_CONFIGS = {"demo": _DEMO_CONFIG, "cora": _CORA_CONFIG, "manyclass": _MANYCLASS_CONFIG}

# name -> (dataset kind, seed, stage of the episode whose gradients are
# digested, config keys set on top of the kind's); the last two runs pin the
# ablations: old prototypes carried from the teacher, and PN* (mean
# prototypes, proximity only)
RUNS = {
    "demo_seed0": ("demo", 0, 0, {}),
    "demo_seed13": ("demo", 13, 1, {}),
    "cora_seed0": ("cora", 0, 1, {}),
    "manyclass_seed0": ("manyclass", 0, 2, {}),
    "demo_seed0_carried": ("demo", 0, 2, {"carried_prototypes": True}),
    "demo_seed0_pn_star": ("demo", 0, 1, {"mode": "pn_star"}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def versions() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas_name}


def _write_dataset(kind: str, directory: Path, seed: int) -> None:
    from geometer.graph_store import make_graph, save_dataset
    from geometer.synth import write_synthetic_dataset
    if kind == "demo":
        write_synthetic_dataset(directory, seed=seed, **_DEMO_DATA)
        return
    sys.path.insert(0, str(ROOT / "perfbench"))
    from graphgen import GraphShape, make_cora_like, skewed_class_sizes
    if kind == "cora":
        shape = GraphShape(nodes=700, edges=1400, features=600,
                           class_sizes=skewed_class_sizes(700, 5, 60, 0.8), words_per_node=18,
                           topic_words=40, topic_share=0.5, homophily=0.8)
    else:
        shape = GraphShape(nodes=900, edges=1800, features=300,
                           class_sizes=skewed_class_sizes(900, 30, 20, 0.8), words_per_node=12,
                           topic_words=20, topic_share=0.5, homophily=0.8)
    save_dataset(make_graph(*make_cora_like(shape, seed)), directory)


def _episode_digest(cfg, seed: int, stage: int) -> str:
    """Value and gradients of the first episode of ``stage``, from the
    checkpoint that stage starts from (stage 0: the initial model)."""
    import numpy as np

    import geometer.cli as cli
    import geometer.diffmath as dm
    import geometer.runner as rn
    from geometer.backbone import encode, init_backbone
    from geometer.episodes import episode_rng, sample_finetune_episode, sample_pretrain_episode
    from geometer.prototypes import init_class_attention

    _, stream = cli._load_stream(cfg)
    weights, sampler = cfg.loss_weights(), cfg.sampler()
    rng = episode_rng(seed, stage, 0)
    if stage == 0:
        g = stream.snapshots[0]
        state = rn.ModelState(
            init_backbone(g.feature_dim, cfg.hidden_dim, cfg.embedding_dim, seed=seed,
                          heads=cfg.backbone_heads),
            init_class_attention(cfg.embedding_dim, cfg.class_attention_heads, seed=seed),
            None)
        pools = stream.train_pools(0)
        episode = sample_pretrain_episode(pools, sampler, rng)
        loss = rn._episode_loss(state, g, episode, cfg, weights, rng)
    else:
        teacher, _ = cli._load_model(cli._checkpoint_path(cfg, seed, stage - 1))
        g = stream.snapshots[stage]
        teacher_emb = encode(teacher.backbone.detached(), g).data
        state = rn.clone_state(teacher)
        episode = sample_finetune_episode(stage, stream, sampler, rng)
        frozen = rn._Teacher(teacher_emb, teacher.prototypes, stream.classes_at(stage - 1),
                             stream.novel_at(stage))
        loss = rn._episode_loss(state, g, episode, cfg, weights, rng, frozen)
    value, grads = dm.value_and_grad(loss, state.trainable())
    return _sha(b"".join([np.float64(value).tobytes(), *(a.tobytes() for a in grads)]))


def _tensor_digests(path) -> dict:
    """Each tensor of a checkpoint file: its dtype, shape and bytes."""
    from geometer.checkpoint import load_tensors
    return {name: _sha(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())
            for name, arr in load_tensors(path).items()}


def run_digests(name: str, work: Path) -> dict:
    """The digests of run ``name``, computed in ``work``."""
    import geometer.cli as cli
    from geometer.config import ExperimentConfig

    kind, seed, stage, overrides = RUNS[name]
    _write_dataset(kind, work / "data", seed)
    cfg = ExperimentConfig(dataset_dir=str(work / "data"), manifest=str(work / "manifest.json"),
                           run_dir=str(work / "runs"), seeds=(seed,),
                           **{**_CONFIGS[kind], **overrides})
    cli.cmd_prepare(cfg)
    checkpoints = cli.cmd_pretrain(cfg, seed) + cli.cmd_stream(cfg, seed)
    records = []
    for line in cli._metrics_path(cfg, seed).read_text().splitlines():
        rec = json.loads(line)
        del rec["seconds"]
        records.append(json.dumps(rec, sort_keys=True))
    return {
        "manifest": _sha(Path(cfg.manifest).read_bytes()),
        "checkpoints": {Path(p).name: _sha(Path(p).read_bytes()) for p in checkpoints},
        "tensors": {Path(p).name: _tensor_digests(p) for p in checkpoints},
        "metrics": _sha("\n".join(records).encode()),
        "episode_gradients": _episode_digest(cfg, seed, stage),
    }


def compute_all() -> dict:
    """Every run's digests, each run in its own single-BLAS-thread subprocess."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        procs = {}
        for name in RUNS:
            procs[name] = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--run", name,
                 str(Path(tmp) / name)],
                env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        digests = {}
        try:
            for name, proc in procs.items():
                out, err = proc.communicate(timeout=300)
                if proc.returncode != 0:
                    raise RuntimeError(f"golden run {name} failed:\n{err}")
                digests[name] = json.loads(out)
        finally:
            for proc in procs.values():
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    return digests


def test_golden_digests():
    expected = json.loads(FIXTURE.read_text())
    here = versions()
    assert expected["versions"] == here, (
        f"golden digests were written under {expected['versions']}, this environment has "
        f"{here}; regenerate them with `python tests/test_golden.py --write` after checking "
        f"the results on the old versions")
    got = compute_all()
    changed = {name: differences(expected["runs"][name], got[name]) for name in RUNS}
    assert not any(changed.values()), "golden digests changed:\n" + "\n".join(
        f"{name}: {line}" for name, lines in changed.items() for line in lines)


def differences(expected: dict, got: dict) -> list:
    """One line per digest of a run that changed; a checkpoint's line names
    the tensors that moved, the new and the missing ones."""
    lines = [f"{key} changed" for key in ("manifest", "metrics", "episode_gradients")
             if expected.get(key) != got.get(key)]
    files, tensors = expected["checkpoints"], expected["tensors"]
    for file in sorted(files.keys() | got["checkpoints"].keys()):
        if file not in got["checkpoints"]:
            lines.append(f"{file} missing")
        elif file not in files:
            lines.append(f"{file} new")
        elif files[file] != got["checkpoints"][file] or \
                tensors.get(file) != got["tensors"][file]:
            want, have = tensors.get(file, {}), got["tensors"][file]
            moved = [t + ("" if t in have else " (missing)") + ("" if t in want else " (new)")
                     for t in sorted(want.keys() | have.keys()) if want.get(t) != have.get(t)]
            lines.append(f"{file} changed; tensors moved: {', '.join(moved) or 'none'}")
    return lines


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--run":
        work = Path(argv[2])
        work.mkdir(parents=True)
        print(json.dumps(run_digests(argv[1], work)))
        return 0
    if argv == ["--write"]:
        doc = {"versions": versions(), "runs": compute_all()}
        FIXTURE.parent.mkdir(parents=True, exist_ok=True)
        FIXTURE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {FIXTURE}")
        return 0
    print("usage: test_golden.py --write | --run NAME DIR", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
