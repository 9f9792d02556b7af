import struct

import numpy as np
import pytest

from geometer.checkpoint import CheckpointError, load_tensors, save_tensors


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
