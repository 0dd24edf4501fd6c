import numpy as np
import pytest

from bwgan import checkpoint


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "w0": rng.standard_normal((3, 5)),
        "b0": rng.standard_normal(5),
        "scalar": np.asarray(np.pi),
        "deep": rng.standard_normal((2, 3, 4)),
    }
    path = tmp_path / "model.ckpt"
    checkpoint.save_tensors(path, tensors)
    loaded = checkpoint.load_tensors(path)
    assert list(loaded) == list(tensors)
    for k in tensors:
        assert loaded[k].shape == np.shape(tensors[k])
        assert np.array_equal(loaded[k], tensors[k])
        assert loaded[k].tobytes() == np.ascontiguousarray(tensors[k]).tobytes()


def test_save_is_deterministic(tmp_path):
    tensors = {"a": np.arange(6.0).reshape(2, 3)}
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    checkpoint.save_tensors(p1, tensors)
    checkpoint.save_tensors(p2, tensors)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_checkpoint(tmp_path):
    path = tmp_path / "empty.ckpt"
    checkpoint.save_tensors(path, {})
    assert checkpoint.load_tensors(path) == {}


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\0" * 8)
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load_tensors(path)


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint.save_tensors(path, {"a": np.zeros(2)})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load_tensors(path)


def test_rejects_unknown_version(tmp_path):
    import struct
    path = tmp_path / "model.ckpt"
    checkpoint.save_tensors(path, {})
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(checkpoint.CheckpointError):
        checkpoint.load_tensors(path)


def test_every_truncation_raises_checkpoint_error(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint.save_tensors(path, {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)})
    data = path.read_bytes()
    for n in range(len(data)):
        path.write_bytes(data[:n])
        with pytest.raises(checkpoint.CheckpointError):
            checkpoint.load_tensors(path)


def test_rejects_name_that_is_not_utf8(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint.save_tensors(path, {"a": np.zeros(2)})
    raw = bytearray(path.read_bytes())
    raw[16] = 0xFF  # the first byte of the first name
    path.write_bytes(bytes(raw))
    with pytest.raises(checkpoint.CheckpointError, match="UTF-8"):
        checkpoint.load_tensors(path)
