import builtins
import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import geometer.cli as cli
import geometer.records as records
from geometer.checkpoint import load_tensors
from geometer.config import ConfigError, ExperimentConfig, parse_config, write_config
from geometer.runner import SessionMetrics
from geometer.synth import write_synthetic_dataset


@pytest.fixture()
def workspace(tmp_path):
    data_dir = tmp_path / "data"
    write_synthetic_dataset(data_dir, classes=4, per_class=22, feature_dim=10,
                            p_in=0.3, p_out=0.02, seed=1)
    cfg = ExperimentConfig(
        dataset_dir=str(data_dir),
        manifest=str(tmp_path / "manifest.json"),
        run_dir=str(tmp_path / "runs"),
        base_class_count=2, novel_per_session=1, num_sessions=2, k_shot=3,
        hidden_dim=12, embedding_dim=8, class_attention_heads=2,
        k_max=4, k_qry=4, episodes_pretrain=12, episodes_finetune=6,
        seeds=(0, 1))
    cfg_path = tmp_path / "exp.cfg"
    write_config(cfg, cfg_path)
    return tmp_path, cfg, cfg_path


# --- config parsing ----------------------------------------------------------

def test_config_round_trip(workspace):
    _, cfg, cfg_path = workspace
    assert parse_config(cfg_path) == cfg


# the last six are keys of earlier configs: a config that still sets one fails
@pytest.mark.parametrize("key", ["not_a_key", "optimizer", "logit_sign", "freeze_backbone",
                                 "n_way_pretrain", "alpha_pretrain", "backbone_heads"])
def test_config_rejects_unknown_key(tmp_path, key):
    p = tmp_path / "bad.cfg"
    p.write_text(f"hidden_dim = 32\n{key} = 5\n")
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert ":2:" in str(err.value) and f"unknown key {key!r}" in str(err.value)


def test_config_rejects_bad_value_with_line(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("# comment\nhidden_dim = soup\n")
    with pytest.raises(ConfigError) as err:
        parse_config(p)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("key, value", [("novel_per_session", 0), ("novel_per_session", -1),
                                        ("num_sessions", -1), ("episodes_pretrain", -3),
                                        ("episodes_finetune", -1), ("k_max", 0), ("k_qry", 0),
                                        ("old_query_bias", 1.5), ("old_query_bias", 0.0),
                                        ("tau", 0.0), ("lambda_s", -1.0),
                                        ("tau", "nan"), ("lambda_kd", "nan"),
                                        ("lambda_p", "inf"), ("lambda_u", "-inf"),
                                        ("lr_pretrain", "inf"), ("lr_finetune", "nan"),
                                        ("hidden_dim", 0), ("embedding_dim", 0),
                                        ("class_attention_heads", 3),
                                        ("lr_pretrain", -1.0), ("lr_pretrain", 0.0),
                                        ("lr_finetune", -1e-4),
                                        ("base_class_count", 1), ("base_class_count", 0),
                                        ("base_classes", "3"), ("seeds", -1),
                                        ("seeds", "0,0"), ("seeds", "2,-1"),
                                        ("split_seed", -1), ("k_shot", 0)])
def test_config_rejects_impossible_session_counts(tmp_path, key, value):
    # each out-of-range value fails when the config is parsed, naming its key
    p = tmp_path / "bad.cfg"
    p.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"^{key} must "):
        parse_config(p)


def test_config_with_the_removed_dropout_key_fails_at_its_line(workspace):
    # an older write_config listed dropout = 0.0 after class_attention_heads
    tmp_path, _, cfg_path = workspace
    lines = cfg_path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("class_attention_heads")) + 1
    lines.insert(at, "dropout = 0.0")
    p = tmp_path / "old.cfg"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"{p}:{at + 1}: unknown key 'dropout'")):
        parse_config(p)


def test_config_pn_star_degeneration():
    cfg = ExperimentConfig(mode="pn_star", lambda_u=0.9, lambda_kd=0.9)
    weights = cfg.loss_weights()
    assert weights.lambda_u == 0.0 and weights.lambda_s == 0.0 and weights.lambda_kd == 0.0
    assert cfg.prototype_mode == "mean"


# --- prepare ------------------------------------------------------------------

def test_prepare_idempotent_and_shape(workspace):
    _, cfg, _ = workspace
    out1 = cli.cmd_prepare(cfg)
    first = out1.read_bytes()
    cli.cmd_prepare(cfg)
    assert out1.read_bytes() == first
    doc = json.loads(first)
    assert len(doc["base_classes"]) == 2
    assert len(doc["sessions"]) == 2
    for entry in doc["sessions"]:
        assert len(entry["novel_classes"]) == 1
        for sup in entry["supports"].values():
            assert len(sup) == 3


def test_prepare_cuts_no_snapshot_and_writes_the_full_load_manifest(workspace, monkeypatch):
    import geometer.graph_store as gs
    tmp, cfg, _ = workspace
    g = gs.load_graph(cfg.dataset_dir)
    base, sessions = cli._select_classes(g.labels, cfg)
    gs.save_manifest(gs.build_session_stream(g, base, sessions, cfg.k_shot, cfg.split_seed),
                     tmp / "full.json")
    # no snapshot is cut
    monkeypatch.setattr(gs, "_cut_stages", None)
    assert cli.cmd_prepare(cfg).read_bytes() == (tmp / "full.json").read_bytes()


def test_prepare_explicit_classes(workspace):
    _, cfg, _ = workspace
    cfg2 = replace(cfg, base_classes=(3, 2), novel_classes=(0, 1))
    cli.cmd_prepare(cfg2)
    doc = json.loads(open(cfg2.manifest).read())
    assert doc["base_classes"] == [3, 2]
    assert [s["novel_classes"] for s in doc["sessions"]] == [[0], [1]]


def test_prepare_errors_on_impossible_split(workspace):
    _, cfg, _ = workspace
    with pytest.raises(cli.CliError):
        cli.cmd_prepare(replace(cfg, base_class_count=3, num_sessions=3))


# --- pretrain / stream / report ------------------------------------------------

def test_full_cli_pipeline(workspace):
    tmp_path, cfg, cfg_path = workspace
    assert cli.main(["prepare", "--config", str(cfg_path)]) == 0
    assert cli.main(["pretrain", "--config", str(cfg_path)]) == 0
    for seed in (0, 1):
        ckpt = tmp_path / "runs" / f"seed{seed}_session0.gfsp"
        assert ckpt.is_file()
        arrays = load_tensors(ckpt)
        assert int(arrays["meta/seed"][0]) == seed
        lines = (tmp_path / "runs" / f"metrics_seed{seed}.jsonl").read_text().splitlines()
        rec = json.loads(lines[0])
        assert rec["session"] == 0 and {"mean", "per_class", "seconds"} <= set(rec)
        assert type(rec["seconds"]) is float and rec["seconds"] >= 0
        assert "std" not in rec        # the spread across seeds is the report's
    assert cli.main(["stream", "--config", str(cfg_path)]) == 0
    for seed in (0, 1):
        lines = (tmp_path / "runs" / f"metrics_seed{seed}.jsonl").read_text().splitlines()
        sessions = [json.loads(l)["session"] for l in lines]
        assert sessions == [0, 1, 2]  # monotone in session index
    assert cli.main(["report", "--config", str(cfg_path)]) == 0
    report = json.loads((tmp_path / "runs" / "report.json").read_text())
    assert [row["session"] for row in report["sessions"]] == [0, 1, 2]
    assert all(row["n_seeds"] == 2 for row in report["sessions"])


def test_pretrain_pn_star_checkpoint_has_mean_prototypes(workspace):
    tmp_path, cfg, _ = workspace
    pn_cfg = replace(cfg, mode="pn_star", seeds=(0,), episodes_pretrain=0)
    cli.cmd_prepare(pn_cfg)
    cli.cmd_pretrain(pn_cfg)
    from geometer.backbone import encode
    from geometer.checkpoint import arrays_to_model
    model, _ = arrays_to_model(load_tensors(tmp_path / "runs" / "seed0_session0.gfsp"))
    _, stream = cli._load_stream(pn_cfg)
    g0 = stream.snapshots[0]
    emb = encode(model.backbone, g0).data
    for cls in stream.classes_at(0):
        rows = g0.rows_of(stream.train_pools(0)[cls])
        want = emb[rows].mean(axis=0)
        got = model.prototypes.vectors.data[model.prototypes.index_of(cls)]
        np.testing.assert_allclose(got, want, atol=1e-5)


def test_stream_resume_reproduces_metrics(workspace):
    tmp_path, cfg, cfg_path = workspace
    cli.cmd_prepare(cfg)
    one_seed = replace(cfg, seeds=(0,))
    cli.cmd_pretrain(one_seed)
    cli.cmd_stream(one_seed)
    baseline = [json.loads(l) for l in
                (tmp_path / "runs" / "metrics_seed0.jsonl").read_text().splitlines()]
    # resume from the session-1 checkpoint into a fresh run dir
    resume_cfg = replace(one_seed, run_dir=str(tmp_path / "resume"))
    ckpt = tmp_path / "runs" / "seed0_session1.gfsp"
    cli.cmd_stream(resume_cfg, checkpoint=str(ckpt))
    resumed = [json.loads(l) for l in
               (tmp_path / "resume" / "metrics_seed0.jsonl").read_text().splitlines()]
    base_s2 = next(r for r in baseline if r["session"] == 2)
    res_s2 = next(r for r in resumed if r["session"] == 2)
    assert abs(base_s2["mean"] - res_s2["mean"]) < 1e-6


def test_commands_evaluate_on_the_stage_encode(workspace, monkeypatch):
    # pretrain encodes its snapshot once; each session encodes it twice, for
    # the frozen teacher and the finished student; evaluation adds none
    import geometer.runner as rn
    _, cfg, _ = workspace
    cli.cmd_prepare(cfg)
    one_seed = replace(cfg, seeds=(0,))
    full = []
    encode = rn.encode

    def counting(params, g, rows=None, workspace=None):
        full.append(rows is None)
        return encode(params, g, rows, workspace)

    monkeypatch.setattr(rn, "encode", counting)
    cli.cmd_pretrain(one_seed)
    assert sum(full) == 1
    cli.cmd_stream(one_seed)
    assert sum(full) == 1 + 2 * cfg.num_sessions


def test_pretrain_reports_a_diverged_episode(workspace, capsys):
    # finite features near the float32 limit overflow the layer-0 projection
    import geometer.graph_store as gs
    tmp_path, _, cfg_path = workspace
    data = tmp_path / "data"
    g = gs.load_graph(data)
    signs = np.where(np.arange(g.feature_dim) % 2, 1.0, -1.0).astype(np.float32)
    huge = np.full(g.features.shape, 3e38, dtype=np.float32) * signs
    gs.save_dataset(gs.make_graph(huge, g.edges, g.labels), data)
    assert cli.main(["prepare", "--config", str(cfg_path)]) == 0
    assert cli.main(["pretrain", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    assert err == ('error kind=TrainingDivergedError message="non-finite loss in pretrain '
                   'episode 0: gat_layer: non-finite projection"')


def test_stream_session_count_guard(workspace):
    tmp_path, cfg, cfg_path = workspace
    cli.cmd_prepare(cfg)
    one_seed = replace(cfg, seeds=(0,))
    cli.cmd_pretrain(one_seed)
    cli.cmd_stream(one_seed)
    final = tmp_path / "runs" / "seed0_session2.gfsp"
    with pytest.raises(cli.CliError):
        cli.cmd_stream(one_seed, checkpoint=str(final))


def _append(run_dir, seed, session, mean=0.5, mode="geometer", seconds=0):
    """Add a record of a session with no per-class accuracies to ``run_dir``."""
    records.append_record(run_dir, seed, SessionMetrics(session, mean, {}), seconds, mode)


def test_report_single_seed_zero_std(workspace):
    tmp_path, cfg, _ = workspace
    run_dir = tmp_path / "runs"
    run_dir.mkdir()
    for session, acc in ((0, 0.9), (1, 0.8)):
        _append(run_dir, 0, session, acc, seconds=0.1)
    with open(run_dir / "metrics_seed0.jsonl", "a") as fh:
        fh.write("\n  \n")            # blank lines hold no record
    summary = records.summarize(records.load_records(cfg.run_dir))
    assert all(row["std"] == 0.0 for row in summary["sessions"])


def test_report_statistics_match_population_std(workspace):
    tmp_path, cfg, _ = workspace
    run_dir = tmp_path / "runs"
    run_dir.mkdir()
    rng = np.random.default_rng(3)
    accs = {seed: float(rng.random()) for seed in range(5)}
    for seed, acc in accs.items():
        _append(run_dir, seed, 0, acc, seconds=0.1)
    summary = records.summarize(records.load_records(cfg.run_dir))
    values = np.array([accs[s] for s in sorted(accs)])
    assert summary["sessions"][0]["mean"] == pytest.approx(values.mean())
    assert summary["sessions"][0]["std"] == pytest.approx(values.std())


def test_report_inconsistent_sessions_rejected(workspace):
    tmp_path, cfg, _ = workspace
    run_dir = tmp_path / "runs"
    run_dir.mkdir()
    _append(run_dir, 0, 0)
    _append(run_dir, 1, 1)
    with pytest.raises(records.ReportError):
        records.summarize(records.load_records(cfg.run_dir))


def test_report_rejects_a_second_record_for_a_session(workspace):
    tmp_path, cfg, _ = workspace
    log = tmp_path / "runs" / "metrics_seed0.jsonl"
    for session in (0, 1, 2, 1):
        _append(log.parent, 0, session)
    with pytest.raises(records.ReportError,
                       match=f"^{re.escape(str(log))}:4: second record for seed 0 session 1$"):
        records.load_records(cfg.run_dir)


def test_report_rejects_mixed_modes(workspace):
    tmp_path, cfg, _ = workspace
    run_dir = tmp_path / "runs"
    _append(run_dir, 0, 0)
    _append(run_dir, 1, 0)
    _append(run_dir, 1, 1, mode="pn_star")
    log = re.escape(str(run_dir / "metrics_seed1.jsonl"))
    with pytest.raises(records.ReportError, match=f"^{log}:2: mode 'pn_star' differs from "
                                                  f"mode 'geometer' of the first record$"):
        records.load_records(cfg.run_dir)


_CUT_RECORD = '{"seed": 0, "session"'     # a record line cut short


def _json_error(text: str) -> str:
    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        return str(exc)
    raise AssertionError(f"{text!r} decodes")


@pytest.mark.parametrize("line, problem", [
    ('{"session": 1, "mean": 0.5}', "metrics record lacks seed"),
    ('{"seed": 0, "mean": 0.5}', "metrics record lacks session"),
    ('{"seed": 0, "session": 1}', "metrics record lacks mean"),
    ('{"mean": 0.5}', "metrics record lacks seed, session"),
    ("[1, 2]", "metrics record is not a JSON object"),
    ("7", "metrics record is not a JSON object"),
    (_CUT_RECORD, f"bad metrics record ({_json_error(_CUT_RECORD)})"),
    ('{"seed": 0, "session": 1, "mean": "x"}', "mean must be a number in [0, 1], got 'x'"),
    ('{"seed": 0, "session": 1, "mean": null}', "mean must be a number in [0, 1], got None"),
    ('{"seed": 0, "session": 1, "mean": NaN}', "mean must be a number in [0, 1], got nan"),
    ('{"seed": 0, "session": 1, "mean": 1.5}', "mean must be a number in [0, 1], got 1.5"),
    ('{"seed": [0], "session": 1, "mean": 0.5}',
     "seed must be a non-negative integer, got [0]"),
    ('{"seed": "0", "session": 1, "mean": 0.5}',
     "seed must be a non-negative integer, got '0'"),
    ('{"seed": true, "session": 1, "mean": 0.5}',
     "seed must be a non-negative integer, got True"),
    ('{"seed": 0, "session": 0.5, "mean": 0.5}',
     "session must be a non-negative integer, got 0.5"),
    ('{"seed": 0, "session": -1, "mean": 0.5}',
     "session must be a non-negative integer, got -1"),
], ids=["no_seed", "no_session", "no_mean", "two_missing", "list", "number", "undecodable",
        "mean_string", "mean_null", "mean_nan", "mean_above_one", "seed_list", "seed_string",
        "seed_bool", "session_fraction", "session_negative"])
def test_report_names_a_malformed_record(workspace, capsys, line, problem):
    tmp_path, _, cfg_path = workspace
    log = tmp_path / "runs" / "metrics_seed0.jsonl"
    _append(log.parent, 0, 0)
    with open(log, "a") as fh:
        fh.write(line + "\n")
    assert cli.main(["report", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err == (
        f'error kind=ReportError message="{log}:2: {problem}"\n')


def test_failed_report_write_keeps_the_previous_report(workspace, monkeypatch):
    tmp_path, cfg, _ = workspace
    run_dir = tmp_path / "runs"
    _append(run_dir, 0, 0)
    cli.cmd_report(cfg)
    report = run_dir / "report.json"
    before = report.read_bytes()
    _append(run_dir, 0, 1)

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{\n  "seeds": [')
        raise OSError("no space left on device")

    monkeypatch.setattr(records.json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="no space left"):
        cli.cmd_report(cfg)
    assert report.read_bytes() == before
    assert sorted(p.name for p in run_dir.iterdir()) == ["metrics_seed0.jsonl", "report.json"]


class _FullDisk:
    """A file that takes half of the first write, then reports a full disk."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, text):
        self._fh.write(text[:len(text) // 2])
        raise OSError(28, "No space left on device")


def test_failed_metrics_write_keeps_the_previous_log(workspace, monkeypatch):
    tmp_path, cfg, _ = workspace
    cli.cmd_prepare(cfg)
    cli.cmd_pretrain(cfg, 0)
    log = tmp_path / "runs" / "metrics_seed0.jsonl"
    before = log.read_bytes()
    real_open = builtins.open

    def opening(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if isinstance(file, (str, Path)) and "metrics_seed" in Path(file).name \
                and mode[0] in "wa":
            return _FullDisk(fh)
        return fh

    monkeypatch.setattr(builtins, "open", opening)
    with pytest.raises(OSError, match="No space left"):
        cli.cmd_stream(cfg, 0)
    monkeypatch.undo()
    assert log.read_bytes() == before
    assert [rec["session"] for rec in records.load_records(cfg.run_dir)] == [0]
    assert not [p.name for p in log.parent.iterdir() if p.name.endswith(".tmp")]


def test_only_records_names_the_record_files():
    # the metrics logs and the report are the files of ``records``, which
    # alone builds, reads and checks them
    src = Path(records.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "records.py":
            text = path.read_text()
            assert "metrics_seed" not in text and "report.json" not in text, path.name


# --- export --------------------------------------------------------------------

def test_export_row_counts_and_round_trip(workspace):
    tmp_path, cfg, cfg_path = workspace
    cli.cmd_prepare(cfg)
    one_seed = replace(cfg, seeds=(0,))
    cli.cmd_pretrain(one_seed)
    g, stream = cli._load_stream(cfg)
    ckpt = tmp_path / "runs" / "seed0_session0.gfsp"
    out = tmp_path / "emb.tsv"
    cli.export_embeddings(cfg, str(ckpt), None, out)

    node_rows, proto_rows = [], []
    for line in out.read_text().splitlines():
        cols = line.split("\t")
        (node_rows if cols[0] == "node" else proto_rows).append(cols)
    pool_size = sum(len(pool) for pool in stream.test_pools(0).values())
    assert len(node_rows) == pool_size
    assert len(proto_rows) == len(stream.classes_at(0))

    # parse-back recovers float32 vectors exactly
    from geometer.backbone import encode
    from geometer.checkpoint import arrays_to_model
    model, _ = arrays_to_model(load_tensors(ckpt))
    emb = encode(model.backbone, stream.snapshots[0]).data
    for cols in node_rows[:10]:
        node, _ = int(cols[1]), int(cols[2])
        parsed = np.array([np.float32(v) for v in cols[3:]])
        np.testing.assert_array_equal(parsed, emb[stream.snapshots[0].row_of(node)])


def test_export_encodes_without_a_tape_and_replaces_the_file_whole(workspace, monkeypatch):
    import geometer.backbone as bb
    import geometer.prototypes as pt
    tmp_path, cfg, _ = workspace
    cli.cmd_prepare(cfg)
    cli.cmd_pretrain(replace(cfg, seeds=(0,)))
    ckpt = str(tmp_path / "runs" / "seed0_session0.gfsp")
    out = tmp_path / "emb.tsv"
    encoded = []
    encode = bb.encode

    def recording(params, g, *args, **kwargs):
        encoded.append(encode(params, g, *args, **kwargs))
        return encoded[-1]

    monkeypatch.setattr(bb, "encode", recording)
    cli.export_embeddings(cfg, ckpt, None, out)
    assert len(encoded) == 1 and not encoded[0].requires_grad and encoded[0]._parents == ()
    before = out.read_bytes()

    def failing(self, cls):
        raise RuntimeError("write interrupted")

    # the node rows are written before the prototype rows look up their class
    monkeypatch.setattr(pt.PrototypeSet, "index_of", failing)
    with pytest.raises(RuntimeError, match="interrupted"):
        cli.export_embeddings(cfg, ckpt, None, out)
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir() if p.name.startswith(".")) == []


def test_export_unknown_session(workspace):
    tmp_path, cfg, cfg_path = workspace
    cli.cmd_prepare(cfg)
    one_seed = replace(cfg, seeds=(0,))
    cli.cmd_pretrain(one_seed)
    ckpt = tmp_path / "runs" / "seed0_session0.gfsp"
    with pytest.raises(cli.CliError):
        cli.export_embeddings(cfg, str(ckpt), 7, tmp_path / "x.tsv")


def test_checkpoints_pass_through_cli_save_and_load_tensors(workspace, monkeypatch):
    # the benchmark's tracer times checkpoint writes and reads by wrapping
    # ``cli.save_tensors`` and ``cli.load_tensors``
    tmp_path, cfg, cfg_path = workspace
    saved, loaded = [], []
    save, load = cli.save_tensors, cli.load_tensors
    monkeypatch.setattr(cli, "save_tensors",
                        lambda path, arrays: saved.append(Path(path).name) or save(path, arrays))
    monkeypatch.setattr(cli, "load_tensors",
                        lambda path: loaded.append(Path(path).name) or load(path))
    _prepare(cfg_path)
    assert cli.main(["pretrain", "--config", str(cfg_path)]) == 0
    assert cli.main(["stream", "--config", str(cfg_path)]) == 0
    # one save per stage, one load per started seed
    assert saved == [f"seed{seed}_session0.gfsp" for seed in (0, 1)] + [
        f"seed{seed}_session{session}.gfsp" for seed in (0, 1) for session in (1, 2)]
    assert loaded == [f"seed{seed}_session0.gfsp" for seed in (0, 1)]


# --- outside input: every bad file or argument ends in one named error line ------

@pytest.mark.parametrize("text, message", [
    ("# a comment\nhidden_dim 32\n", "{p}:2: expected 'key = value', got 'hidden_dim 32'"),
    ("k_shot = 3\nk_shot = 4\n", "{p}:2: duplicate key 'k_shot'"),
    ("carried_prototypes = maybe\n",
     "{p}:1: bad value for 'carried_prototypes' (not a boolean: 'maybe')"),
    ("mode = protonet\n", "mode must be geometer or pn_star, got 'protonet'"),
    ("alpha_finetune = balanced\n", "alpha_finetune must be uniform or inverse_frequency"),
    ("seeds =\n", "seeds must be non-empty"),
    ("hidden_dim = 32\nbackbone_heads = 1\n", "{p}:2: unknown key 'backbone_heads'"),
], ids=["no_equals", "duplicate_key", "non_boolean", "mode", "alpha_finetune", "empty_seeds",
        "removed_key"])
def test_cli_names_the_bad_config_line(tmp_path, capsys, text, message):
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    assert cli.main(["prepare", "--config", str(p)]) == 1
    assert capsys.readouterr().err == (
        f'error kind=ConfigError message="{message.format(p=p)}"\n')


@pytest.mark.parametrize("value, expected", [("true", True), ("Yes", True), ("1", True),
                                             ("false", False), ("no", False), ("0", False)])
def test_config_reads_booleans(tmp_path, value, expected):
    p = tmp_path / "flag.cfg"
    p.write_text(f"carried_prototypes = {value}\n")
    assert parse_config(p).carried_prototypes is expected


def _prepare(cfg_path):
    assert cli.main(["prepare", "--config", str(cfg_path)]) == 0


def _pretrain_seed0(cfg, cfg_path) -> Path:
    _prepare(cfg_path)
    assert cli.main(["pretrain", "--config", str(cfg_path), "--seed", "0"]) == 0
    return Path(cfg.run_dir) / "seed0_session0.gfsp"


def _reconfigure(cfg, cfg_path, **changes):
    write_config(replace(cfg, **changes), cfg_path)


def _edit_manifest(cfg, cfg_path, edit):
    """Prepare, then rewrite the first session of the manifest through
    ``edit(doc, novel_class, supports)``; returns the path and ``edit``'s
    result."""
    _prepare(cfg_path)
    path = Path(cfg.manifest)
    doc = json.loads(path.read_text())
    session = doc["sessions"][0]
    cls = session["novel_classes"][0]
    result = edit(doc, cls, session["supports"][str(cls)])
    path.write_text(json.dumps(doc))
    return path, result


def _missing_dataset(tmp, cfg, cfg_path):
    _reconfigure(cfg, cfg_path, dataset_dir=str(tmp / "nowhere"))
    return "prepare", "CliError", f"dataset directory not found: {tmp / 'nowhere'}"


def _missing_manifest(tmp, cfg, cfg_path):
    return "pretrain", "CliError", f"split manifest not found: {cfg.manifest}"


def _missing_checkpoint(tmp, cfg, cfg_path):
    _prepare(cfg_path)
    return ("stream", "CliError",
            f"checkpoint not found: {Path(cfg.run_dir) / 'seed0_session0.gfsp'}")


def _base_without_novel(tmp, cfg, cfg_path):
    _reconfigure(cfg, cfg_path, base_classes=(3, 2))
    return "prepare", "CliError", "base_classes and novel_classes must be given together"


def _wrong_novel_count(tmp, cfg, cfg_path):
    _reconfigure(cfg, cfg_path, base_classes=(3, 2), novel_classes=(0,))
    return "prepare", "CliError", "novel_classes lists 1 classes, expected 2 x 1 = 2"


def _manifest_is_a_directory(tmp, cfg, cfg_path):
    (tmp / "manifests").mkdir()
    _reconfigure(cfg, cfg_path, manifest=str(tmp / "manifests"))
    return ("pretrain", "ManifestError",
            f"{tmp / 'manifests'}: is a directory, not a manifest file")


def _checkpoint_argv(command, path, tmp):
    """``stream`` or ``export`` (into ``tmp``) of checkpoint ``path``."""
    argv = [command, "--checkpoint", str(path)]
    return argv + ["--out", str(tmp / "x.tsv")] if command == "export" else argv


def _checkpoint_is_a_directory(command):
    def case(tmp, cfg, cfg_path):
        _prepare(cfg_path)
        (tmp / "ckpt").mkdir()
        return (_checkpoint_argv(command, tmp / "ckpt", tmp), "CheckpointError",
                f"{tmp / 'ckpt'}: is a directory, not a checkpoint file")

    case.__name__ = f"_{command}_of_a_checkpoint_that_is_a_directory"
    return case


def _checkpoint_with_a_name_that_is_not_utf8(command):
    # byte 12 is the first byte of the first tensor's name
    def case(tmp, cfg, cfg_path):
        data = bytearray(_pretrain_seed0(cfg, cfg_path).read_bytes())
        data[12] = 0xFF
        (tmp / "edited.gfsp").write_bytes(bytes(data))
        return (_checkpoint_argv(command, tmp / "edited.gfsp", tmp), "CheckpointError",
                f"{tmp / 'edited.gfsp'}: tensor name at byte 12 is not UTF-8")

    case.__name__ = f"_{command}_of_a_checkpoint_with_a_name_that_is_not_utf8"
    return case


def _checkpoint_of_another_feature_width(command):
    # pretrained on 10 features; the dataset is then rewritten with 12, the
    # same labels and so the same manifest
    def case(tmp, cfg, cfg_path):
        ckpt = _pretrain_seed0(cfg, cfg_path)
        write_synthetic_dataset(cfg.dataset_dir, classes=4, per_class=22, feature_dim=12,
                                p_in=0.3, p_out=0.02, seed=1)
        return (_checkpoint_argv(command, ckpt, tmp), "ShapeError",
                "graph feature dim 12 != backbone input 10")

    case.__name__ = f"_{command}_of_a_checkpoint_of_another_feature_width"
    return case


def _unlabel_novel_class(cfg, session, extra):
    """Unlabel the novel class of manifest session ``session`` down to its
    supports and the first ``extra`` of its other nodes; returns the class."""
    spec = json.loads(Path(cfg.manifest).read_text())["sessions"][session - 1]
    cls = spec["novel_classes"][0]
    sup = set(spec["supports"][str(cls)])
    labels_tsv = Path(cfg.dataset_dir) / "labels.tsv"
    lines = []
    for line in labels_tsv.read_text().splitlines():
        node, label = (int(v) for v in line.split("\t"))
        if label == cls and node not in sup:
            extra -= 1
            label = label if extra >= 0 else -1
        lines.append(f"{node}\t{label}\n")
    labels_tsv.write_text("".join(lines))
    return cls


def _manifest_class_with_only_k_labeled_nodes(tmp, cfg, cfg_path):
    # a novel class whose labeled nodes are exactly its k supports leaves no
    # node to evaluate or query: the manifest is rejected when it is loaded
    _prepare(cfg_path)
    cls = _unlabel_novel_class(cfg, 1, extra=0)
    return ("pretrain", "ManifestError",
            f"{cfg.manifest}: class {cls} has 3 labeled nodes, needs >= 4")


def _prepare_short_of_a_base_pool(tmp, cfg, cfg_path):
    # pretraining draws k_max + k_qry = 24 nodes from each base class of 22
    _reconfigure(cfg, cfg_path, k_max=20)
    return ("prepare", "PoolTooSmallError",
            f"{cfg.manifest}: stage 0: class 0 pool has 22 nodes, needs >= 24")


def _stream_short_of_novel_queries(tmp, cfg, cfg_path):
    # session 2's novel class keeps K + 1 = 4 labeled nodes, one beyond its
    # supports, and its episodes draw 3 novel queries (10 less 7 old ones):
    # stream refuses before it trains session 1
    _reconfigure(cfg, cfg_path, k_qry=10)
    _pretrain_seed0(cfg, cfg_path)
    _unlabel_novel_class(cfg, 2, extra=1)
    return (["stream", "--seed", "0"], "PoolTooSmallError",
            f"{cfg.manifest}: stage 2: novel query pool has 1 nodes, needs 3")


def _manifest_not_json(tmp, cfg, cfg_path):
    _prepare(cfg_path)
    Path(cfg.manifest).write_text("{")
    return "pretrain", "ManifestError", f"{cfg.manifest}: invalid JSON ({_json_error('{')})"


def _manifest_not_utf8(tmp, cfg, cfg_path):
    _prepare(cfg_path)
    text = b'{"seed": "\xff"}'
    Path(cfg.manifest).write_bytes(text)
    with pytest.raises(UnicodeDecodeError) as exc:
        text.decode("utf-8")
    return "pretrain", "ManifestError", f"{cfg.manifest}: invalid JSON ({exc.value})"


def _manifest_without_k_shot(tmp, cfg, cfg_path):
    path, _ = _edit_manifest(cfg, cfg_path, lambda doc, cls, sup: doc.pop("k_shot"))
    return "pretrain", "ManifestError", f"{path}: malformed manifest ('k_shot')"


def _manifest_class_without_supports(tmp, cfg, cfg_path):
    def edit(doc, cls, sup):
        doc["sessions"][0]["supports"].clear()
        return cls

    path, cls = _edit_manifest(cfg, cfg_path, edit)
    return ("pretrain", "ManifestError",
            f"{path}: supports must cover exactly the novel classes [{cls}]")


def _manifest_short_of_supports(tmp, cfg, cfg_path):
    def edit(doc, cls, sup):
        del sup[-1]
        return cls

    path, cls = _edit_manifest(cfg, cfg_path, edit)
    return "pretrain", "ManifestError", f"{path}: class {cls} has 2 supports, expected 3"


def _manifest_support_outside_the_graph(tmp, cfg, cfg_path):
    def edit(doc, cls, sup):
        sup[0] = 10 ** 6

    _edit_manifest(cfg, cfg_path, edit)
    return "pretrain", "NodeIdError", "unknown node id 1000000"


def _manifest_support_of_another_class(tmp, cfg, cfg_path):
    from geometer.graph_store import load_graph
    labels = load_graph(cfg.dataset_dir).labels

    def edit(doc, cls, sup):
        sup[0] = int(np.flatnonzero(labels == doc["base_classes"][0])[0])
        return cls, sup[0]

    path, (cls, node) = _edit_manifest(cfg, cfg_path, edit)
    return ("pretrain", "ManifestError", f"{path}: support node {node} is not labeled {cls}")


def _manifest_repeats_a_support(tmp, cfg, cfg_path):
    def edit(doc, cls, sup):
        sup[1] = sup[0]
        return cls, sup[0]

    path, (cls, node) = _edit_manifest(cfg, cfg_path, edit)
    return ("pretrain", "ManifestError", f"{path}: class {cls} lists support node {node} twice")


def _session0(doc, **fields):
    doc["sessions"][0].update(fields)
    return doc


# (case name, the manifest ``edit(doc, novel class)`` returns, what the error
# says of it): every field is typed before it is read, and fails by name
_BAD_MANIFEST_FIELDS = [
    ("null_supports", lambda doc, cls: _session0(doc, supports=None),
     "sessions[0].supports must be an object from class id to node ids, got null"),
    ("string_supports", lambda doc, cls: _session0(doc, supports="x"),
     "sessions[0].supports must be an object from class id to node ids, got 'x'"),
    ("number_supports", lambda doc, cls: _session0(doc, supports=3),
     "sessions[0].supports must be an object from class id to node ids, got 3"),
    ("list_supports", lambda doc, cls: _session0(doc, supports=[1, 2]),
     "sessions[0].supports must be an object from class id to node ids, got [1, 2]"),
    ("supports_keyed_by_a_name", lambda doc, cls: _session0(doc, supports={"x": [1]}),
     "sessions[0].supports must be keyed by class ids, got 'x'"),
    ("a_support_count_for_ids", lambda doc, cls: _session0(doc, supports={str(cls): 3}),
     "sessions[0].supports['{cls}'] must be a list of 64-bit integers, got 3"),
    ("a_boolean_novel_class", lambda doc, cls: _session0(doc, novel_classes=[True]),
     "sessions[0].novel_classes must be a list of 64-bit integers, got [true]"),
    ("a_session_that_is_a_number", lambda doc, cls: {**doc, "sessions": [3]},
     "sessions[0] must be an object, got 3"),
    ("sessions_that_are_an_object", lambda doc, cls: {**doc, "sessions": {}},
     "sessions must be a list, got {{}}"),
    ("a_negative_seed", lambda doc, cls: {**doc, "seed": -1},
     "seed must be a non-negative integer, got -1"),
    ("a_fractional_seed", lambda doc, cls: {**doc, "seed": 1.5},
     "seed must be a non-negative integer, got 1.5"),
    ("a_seed_past_int64", lambda doc, cls: {**doc, "seed": 10 ** 20},
     "seed must be a non-negative integer, got 100000000000000000000"),
    ("a_string_k_shot", lambda doc, cls: {**doc, "k_shot": "3"},
     "k_shot must be a positive integer, got '3'"),
    ("no_base_classes", lambda doc, cls: {**doc, "base_classes": []},
     "base_classes must be a list of at least two classes, got []"),
    ("a_list_for_an_object", lambda doc, cls: [doc],
     "must hold a JSON object"),
]


def _manifest_with(name, edit, problem):
    def case(tmp, cfg, cfg_path):
        _prepare(cfg_path)
        path = Path(cfg.manifest)
        doc = json.loads(path.read_text())
        cls = doc["sessions"][0]["novel_classes"][0]
        path.write_text(json.dumps(edit(doc, cls)))
        return "pretrain", "ManifestError", f"{path}: {problem.format(cls=cls)}"

    case.__name__ = f"_manifest_with_{name}"
    return case


def _checkpoint_without_seed(tmp, cfg, cfg_path):
    from geometer.checkpoint import save_tensors
    arrays = load_tensors(_pretrain_seed0(cfg, cfg_path))
    del arrays["meta/seed"]
    save_tensors(tmp / "unseeded.gfsp", arrays)
    return (["stream", "--checkpoint", str(tmp / "unseeded.gfsp")], "CliError",
            "checkpoint lacks a seed; pass --seed")


def _checkpoint_case(name, command, edit, message):
    """A case that runs ``command`` (stream or export) on a pretrained
    checkpoint rewritten by ``edit(arrays)``; ``message(path)`` is the error
    it must print."""
    def case(tmp, cfg, cfg_path):
        from geometer.checkpoint import save_tensors
        arrays = load_tensors(_pretrain_seed0(cfg, cfg_path))
        edit(arrays)
        path = tmp / "edited.gfsp"
        save_tensors(path, arrays)
        return _checkpoint_argv(command, path, tmp), "CheckpointError", message(path)

    case.__name__ = f"_{command}_of_a_checkpoint_{name}"
    return case


def _checkpoint_without(tensor, command):
    return _checkpoint_case(f"without_{tensor.replace('/', '_')}", command,
                            lambda arrays: arrays.pop(tensor),
                            lambda path: f"{path}: missing tensor {tensor!r}")


# (case name, tensor, the value it is set to, what the error says of it): the
# workspace model reads 10 features through a 12-wide hidden layer and embeds
# in 8 dimensions, and its session-0 checkpoint holds the prototypes of 2 classes
_BAD_TENSORS = [
    ("with_an_empty_seed", "meta/seed", np.array([], dtype=np.int64),
     "has shape [0], expected [1]"),
    ("with_a_negative_seed", "meta/seed", np.array([-1]),
     "holds [-1], expected non-negative integers"),
    ("with_a_fractional_session", "meta/session_index", np.array([0.5]),
     "holds [0.5], expected non-negative integers"),
    ("with_a_short_backbone_meta", "backbone/meta", np.array([10, 12, 8]),
     "has shape [3], expected [5]"),
    ("with_5_backbone_heads", "backbone/meta", np.array([10, 12, 8, 5, 1]),
     "gives the layers 5 and 1 heads, expected 1 and 1"),
    ("with_a_3x3_query_matrix", "class_attention/wq", np.zeros((3, 3)),
     "has shape [3, 3], expected [8, 8]"),
    ("with_3_attention_heads", "class_attention/meta", np.array([3]),
     "splits embedding dim 8 across 3 heads"),
    ("with_a_repeated_prototype_class", "prototypes/classes", np.array([0, 0]),
     "holds [0, 0], expected distinct ascending class ids"),
    ("with_5_wide_prototypes", "prototypes/vectors", np.zeros((2, 5)),
     "has shape [2, 5], expected [2, 8]"),
    ("with_one_prototype_for_two_classes", "prototypes/vectors", np.zeros((1, 8)),
     "has shape [1, 8], expected [2, 8]"),
]


def _checkpoint_with(name, tensor, value, problem, command):
    return _checkpoint_case(name, command, lambda arrays: arrays.update({tensor: value}),
                            lambda path: f"{path}: tensor {tensor!r} {problem}")


# (case name, the class ids of the checkpoint's prototypes): the workspace
# checkpoint is at session 0, whose classes are 0 and 1
_FOREIGN_CLASSES = [("with_a_foreign_prototype_class", [0, 99]),
                    ("with_an_extra_prototype_class", [0, 1, 2])]


def _checkpoint_with_classes(name, class_ids, command):
    def edit(arrays):
        width = arrays["prototypes/vectors"].shape[1]
        arrays["prototypes/classes"] = np.array(class_ids)
        arrays["prototypes/vectors"] = np.zeros((len(class_ids), width))

    return _checkpoint_case(name, command, edit, lambda path: (
        f"{path}: tensor 'prototypes/classes' holds {class_ids}, "
        f"expected the classes of session 0: [0, 1]"))


def _checkpoint_cut_in_a_header(tmp, cfg, cfg_path):
    import struct
    path = tmp / "cut.gfsp"
    path.write_bytes(b"GFSP" + struct.pack("<I", 1) + b"\x05\x00")
    return (["export", "--checkpoint", str(path), "--out", str(tmp / "x.tsv")],
            "CheckpointError", f"{path}: truncated header (unpack requires a buffer of 4 bytes)")


def _export_of_another_session(tmp, cfg, cfg_path):
    ckpt = _pretrain_seed0(cfg, cfg_path)
    return (["export", "--checkpoint", str(ckpt), "--session", "1", "--out",
             str(tmp / "x.tsv")], "CliError", "checkpoint is for session 0, asked for 1")


def _report_of_an_empty_run(tmp, cfg, cfg_path):
    Path(cfg.run_dir).mkdir()
    return "report", "ReportError", f"no metrics records under {cfg.run_dir}"


_BAD_INPUTS = [_missing_dataset, _missing_manifest, _missing_checkpoint, _base_without_novel,
               _wrong_novel_count, _manifest_is_a_directory, _manifest_not_json,
               _manifest_not_utf8,
               _manifest_without_k_shot, _manifest_class_without_supports,
               _manifest_short_of_supports, _manifest_support_outside_the_graph,
               _manifest_support_of_another_class, _manifest_repeats_a_support,
               _manifest_class_with_only_k_labeled_nodes, _prepare_short_of_a_base_pool,
               _stream_short_of_novel_queries, _checkpoint_without_seed,
               _checkpoint_cut_in_a_header, _export_of_another_session,
               _report_of_an_empty_run,
               *(_manifest_with(*bad) for bad in _BAD_MANIFEST_FIELDS),
               *(_checkpoint_without(tensor, command)
                 for tensor in ("class_attention/wq", "meta/session_index",
                                "prototypes/vectors", "prototypes/classes")
                 for command in ("stream", "export")),
               *(_checkpoint_with(*bad, command)
                 for bad in _BAD_TENSORS for command in ("stream", "export")),
               *(_checkpoint_with_classes(*bad, command)
                 for bad in _FOREIGN_CLASSES for command in ("stream", "export")),
               *(case(command)
                 for case in (_checkpoint_is_a_directory, _checkpoint_of_another_feature_width,
                              _checkpoint_with_a_name_that_is_not_utf8)
                 for command in ("stream", "export"))]


@pytest.mark.parametrize("case", _BAD_INPUTS, ids=[f.__name__[1:] for f in _BAD_INPUTS])
def test_cli_names_the_bad_input(workspace, capsys, case):
    tmp_path, cfg, cfg_path = workspace
    command, kind, message = case(tmp_path, cfg, cfg_path)
    argv = [command] if isinstance(command, str) else command
    capsys.readouterr()
    assert cli.main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 1
    assert capsys.readouterr().err == f'error kind={kind} message="{message}"\n'


@pytest.mark.parametrize("case", [_prepare_short_of_a_base_pool, _stream_short_of_novel_queries],
                         ids=lambda case: case.__name__[1:])
def test_pools_short_of_the_sampler_fail_before_any_write(workspace, case):
    tmp_path, cfg, cfg_path = workspace
    command, _, _ = case(tmp_path, cfg, cfg_path)
    argv = [command] if isinstance(command, str) else command
    before = sorted(tmp_path.rglob("*"))
    assert cli.main([argv[0], "--config", str(cfg_path), *argv[1:]]) == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_cli_error_line_is_machine_parsable(tmp_path, capsys):
    rc = cli.main(["pretrain", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error kind=ConfigError message=")
    assert "\n" not in err
