import struct
from pathlib import Path

import numpy as np
import pytest

import geometer.backbone as bb
import geometer.cli as cli
import geometer.diffmath as dm
import geometer.prototypes as pt
import geometer.runner as rn
from geometer.checkpoint import CheckpointError, load_tensors, model_to_arrays, save_tensors
from geometer.config import ExperimentConfig

# a checkpoint written before the int64 kind: every tensor float32, the
# integer metadata included (seed 7, session 2, classes 0, 2 and 5)
FLOAT32_META = Path(__file__).parent / "fixtures" / "float32_meta_session2.gfsp"


def test_round_trip_shapes_and_values(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "scalar": np.array(3.5, dtype=np.float32),
        "vec": rng.normal(size=7).astype(np.float32),
        "mat": rng.normal(size=(4, 6)).astype(np.float32),
        "cube": rng.normal(size=(2, 3, 4)).astype(np.float32),
    }
    p = tmp_path / "t.gfsp"
    save_tensors(p, tensors)
    back = load_tensors(p)
    assert set(back) == set(tensors)
    for k in tensors:
        assert back[k].shape == tensors[k].shape
        assert np.array_equal(back[k], tensors[k])


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_tensors(tmp_path / "nope.gfsp")


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.gfsp"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_tensors(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "t.gfsp"
    save_tensors(p, {"a": np.ones((3, 3), dtype=np.float32)})
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(CheckpointError):
        load_tensors(p)


def test_shape_past_the_file_size_is_a_truncated_payload(tmp_path):
    # four dims of 65,536 hold 2**64 entries, which wraps to 0 in int64
    p = tmp_path / "t.gfsp"
    p.write_bytes(b"GFSP" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"x"
                  + struct.pack("<5I", 4, *[65536] * 4) + b"\x00" * 8)
    with pytest.raises(CheckpointError, match="truncated payload for tensor 'x'"):
        load_tensors(p)


def test_trailing_garbage(tmp_path):
    p = tmp_path / "t.gfsp"
    save_tensors(p, {"a": np.ones(2, dtype=np.float32)})
    p.write_bytes(p.read_bytes() + b"junk")
    with pytest.raises(CheckpointError):
        load_tensors(p)


def test_file_bytes_follow_the_documented_layout(tmp_path):
    p = tmp_path / "t.gfsp"
    save_tensors(p, {"s": np.float32(1.5), "m": np.arange(6, dtype=np.float64).reshape(2, 3)})
    expected = (b"GFSP" + struct.pack("<I", 2)
                + struct.pack("<I", 1) + b"s" + struct.pack("<I", 0)
                + np.float32(1.5).tobytes()
                + struct.pack("<I", 1) + b"m" + struct.pack("<III", 2, 2, 3)
                + np.arange(6, dtype="<f4").tobytes())
    assert p.read_bytes() == expected


def test_failed_write_keeps_the_previous_file(tmp_path):
    p = tmp_path / "t.gfsp"
    save_tensors(p, {"a": np.ones(3, dtype=np.float32)})
    before = p.read_bytes()
    # the second tensor cannot be stored: the write fails after the first is out
    with pytest.raises(ValueError):
        save_tensors(p, {"a": np.zeros(3, dtype=np.float32), "b": np.array(["text"])})
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["t.gfsp"]


def test_integer_arrays_are_stored_exactly_as_int64(tmp_path):
    p = tmp_path / "t.gfsp"
    big = 2 ** 24 + 1                  # float32 would read it back as 2 ** 24
    save_tensors(p, {"i": np.array([big, -3], dtype=np.int32)})
    expected = (b"GFSP" + struct.pack("<I", 1)
                + struct.pack("<I", 1) + b"i" + struct.pack("<II", 1 << 16 | 1, 2)
                + np.array([big, -3], dtype="<i8").tobytes())
    assert p.read_bytes() == expected
    back = load_tensors(p)["i"]
    assert back.dtype == np.int64 and back.tolist() == [big, -3]


def test_loaded_arrays_are_aligned_and_own_their_memory(tmp_path):
    # views into the file's bytes would sit at odd offsets, and numpy computes
    # some products of misaligned arrays in another order: the teacher's
    # logits, and so the trained weights, would change
    p = tmp_path / "t.gfsp"
    save_tensors(p, {"odd": np.ones(3, dtype=np.float32), "i": np.arange(3),
                     "w": np.ones((4, 5), dtype=np.float32).T, "s": np.float32(2.0)})
    for name, arr in load_tensors(p).items():
        assert arr.flags.aligned and arr.flags.owndata and arr.flags.writeable, name


def test_unknown_tensor_kind_is_rejected(tmp_path):
    p = tmp_path / "t.gfsp"
    p.write_bytes(b"GFSP" + struct.pack("<I", 1) + struct.pack("<I", 1) + b"x"
                  + struct.pack("<II", 2 << 16 | 1, 1) + b"\x00" * 8)
    # the kind word follows the 8-byte header, the name length and the name "x"
    with pytest.raises(CheckpointError, match=f"^{p}: unknown kind 2 of tensor 'x' at byte 13$"):
        load_tensors(p)


def test_tensor_name_that_is_not_utf8_is_rejected_at_its_byte(tmp_path):
    # the second name, "ab", starts at byte 8 + (4 + 1 + 8 + 4) + 4 = 29
    p = tmp_path / "t.gfsp"
    save_tensors(p, {"x": np.zeros(1, dtype=np.float32), "ab": np.zeros(1, dtype=np.float32)})
    data = bytearray(p.read_bytes())
    assert data[29:31] == b"ab"
    data[30] = 0xC3                 # a lead byte with no continuation byte
    p.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match=f"^{p}: tensor name at byte 30 is not UTF-8$"):
        load_tensors(p)


def _model(class_ids, session_index):
    protos = pt.PrototypeSet(tuple(class_ids),
                             dm.tensor(np.ones((len(class_ids), 2), dtype=np.float32)))
    return rn.ModelState(bb.init_backbone(3, 4, 2, seed=1), pt.init_class_attention(2, heads=2),
                         protos, session_index)


def test_seed_and_class_ids_past_float32_round_trip(tmp_path):
    big = 2 ** 24 + 1
    cfg = ExperimentConfig(run_dir=str(tmp_path))
    path = cli._save_model(cfg, _model((0, big), 3), big)
    model, seed = cli._load_model(path)
    assert seed == big
    assert model.prototypes.class_ids == (0, big) and model.session_index == 3
    assert model.class_attention.heads == 2


def test_integer_weights_in_a_checkpoint_load_as_float32(tmp_path):
    # a hand-written checkpoint may store a weight with the int64 kind
    arrays = model_to_arrays(_model((0, 1), 0), seed=1)
    arrays["class_attention/wq"] = np.array([[1, -2], [3, 4]], dtype=np.int64)
    save_tensors(tmp_path / "t.gfsp", arrays)
    model, _ = cli._load_model(tmp_path / "t.gfsp")
    wq = model.class_attention.wq.data
    assert wq.dtype == np.float32 and wq.tolist() == [[1, -2], [3, 4]]


def test_checkpoint_with_float32_metadata_still_loads():
    model, seed = cli._load_model(FLOAT32_META)
    assert seed == 7 and model.session_index == 2
    assert model.prototypes.class_ids == (0, 2, 5)
    # its per-class carried tags, which checkpoints no longer hold, are not read
    assert "prototypes/carried" in load_tensors(FLOAT32_META)
    assert model.prototypes.vectors.data.tolist() == [[0, 1], [2, 3], [4, 5]]
    b = model.backbone
    assert (b.feature_dim, b.hidden_dim, b.out_dim) == (3, 4, 2)
    assert model.class_attention.heads == 2
    # it holds the same parameters as a fresh initialization under its seed
    fresh = bb.init_backbone(3, 4, 2, seed=1)
    assert all(a.data.tobytes() == f.data.tobytes()
               for a, f in zip(b.tensors(), fresh.tensors()))
