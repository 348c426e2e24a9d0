"""GenericIO block format: roundtrips, block access, corruption detection."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.io import (
    GenericIOError,
    GenericIOFile,
    read_block,
    read_genericio,
    write_genericio,
)


def _blocks(rng, n_blocks=3):
    out = []
    for _ in range(n_blocks):
        n = rng.integers(0, 50)
        out.append(
            {
                "pos": rng.uniform(0, 1, (n, 3)).astype(np.float32),
                "tag": rng.integers(0, 1 << 40, n).astype(np.uint64),
            }
        )
    return out


def test_roundtrip_all_blocks(tmp_path, rng):
    blocks = _blocks(rng)
    path = tmp_path / "data.gio"
    nbytes = write_genericio(path, blocks)
    assert nbytes == sum(b["pos"].nbytes + b["tag"].nbytes for b in blocks)
    data = read_genericio(path)
    assert np.array_equal(data["tag"], np.concatenate([b["tag"] for b in blocks]))
    assert np.array_equal(data["pos"], np.concatenate([b["pos"] for b in blocks]))


def test_read_single_block(tmp_path, rng):
    blocks = _blocks(rng)
    path = tmp_path / "data.gio"
    write_genericio(path, blocks)
    for i, blk in enumerate(blocks):
        got = read_block(path, i)
        assert np.array_equal(got["tag"], blk["tag"])
        assert np.array_equal(got["pos"], blk["pos"])


def test_block_metadata(tmp_path, rng):
    blocks = _blocks(rng, n_blocks=4)
    path = tmp_path / "data.gio"
    write_genericio(path, blocks)
    gio = GenericIOFile(path)
    assert gio.num_blocks == 4
    assert gio.variables == ["pos", "tag"]
    for i, blk in enumerate(blocks):
        assert gio.block_rows(i) == len(blk["tag"])


def test_dtype_preserved(tmp_path):
    blocks = [
        {
            "f32": np.arange(3, dtype=np.float32),
            "f64": np.arange(3, dtype=np.float64),
            "u32": np.arange(3, dtype=np.uint32),
            "i64": np.arange(3, dtype=np.int64),
        }
    ]
    path = tmp_path / "d.gio"
    write_genericio(path, blocks)
    data = read_genericio(path)
    assert data["f32"].dtype == np.float32
    assert data["f64"].dtype == np.float64
    assert data["u32"].dtype == np.uint32
    assert data["i64"].dtype == np.int64


def test_2d_shapes_preserved(tmp_path, rng):
    blocks = [{"pos": rng.uniform(size=(7, 3))}]
    path = tmp_path / "d.gio"
    write_genericio(path, blocks)
    assert read_block(path, 0)["pos"].shape == (7, 3)


def test_empty_block_roundtrip(tmp_path):
    blocks = [
        {"x": np.empty(0, dtype=np.float32)},
        {"x": np.arange(5, dtype=np.float32)},
    ]
    path = tmp_path / "d.gio"
    write_genericio(path, blocks)
    assert len(read_block(path, 0)["x"]) == 0
    assert len(read_block(path, 1)["x"]) == 5


def test_mismatched_schema_rejected(tmp_path):
    with pytest.raises(ValueError, match="variables"):
        write_genericio(
            tmp_path / "d.gio", [{"a": np.arange(2)}, {"b": np.arange(2)}]
        )


def test_unequal_lengths_rejected(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_genericio(tmp_path / "d.gio", [{"a": np.arange(2), "b": np.arange(3)}])


def test_no_blocks_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_genericio(tmp_path / "d.gio", [])


def test_bad_magic_detected(tmp_path):
    path = tmp_path / "junk.gio"
    path.write_bytes(b"NOTAGIOFILE")
    with pytest.raises(GenericIOError, match="magic"):
        GenericIOFile(path)


def test_corruption_detected_by_crc(tmp_path, rng):
    blocks = [{"x": rng.uniform(size=100)}]
    path = tmp_path / "d.gio"
    write_genericio(path, blocks)
    raw = bytearray(path.read_bytes())
    raw[-10] ^= 0xFF  # flip payload bits
    path.write_bytes(bytes(raw))
    with pytest.raises(GenericIOError, match="CRC"):
        read_genericio(path)
    # verification can be disabled explicitly
    read_genericio(path, verify=False)


def test_block_index_out_of_range(tmp_path, rng):
    path = tmp_path / "d.gio"
    write_genericio(path, [{"x": rng.uniform(size=3)}])
    with pytest.raises(IndexError):
        read_block(path, 1)


@settings(max_examples=25, deadline=None)
@given(
    arrays=st.lists(
        hnp.arrays(np.float64, st.integers(0, 30), elements=st.floats(-1e9, 1e9)),
        min_size=1,
        max_size=4,
    )
)
def test_prop_roundtrip_any_blocks(tmp_path_factory, arrays):
    path = tmp_path_factory.mktemp("gio") / "p.gio"
    blocks = [{"v": a} for a in arrays]
    write_genericio(path, blocks)
    got = read_genericio(path)
    assert np.array_equal(got["v"], np.concatenate(arrays), equal_nan=True)


def test_a_listener_never_submits_a_half_written_file(tmp_path, monkeypatch, rng):
    """The file appears under its name only once complete: a listener that
    polls after every write call of a deliberately slowed write never
    submits it, and afterwards submits it once, without a retry."""
    from repro.faults import RetryPolicy
    from repro.io import genericio
    from repro.machines.listener import Listener

    submitted = []

    def submit(path, step, script):
        GenericIOFile(path).read_all()  # a partial file fails here
        submitted.append(path)

    listener = Listener(tmp_path, "l2_step*.gio", submit, retry=RetryPolicy(max_attempts=1))
    polls = []
    real_open = open

    class SlowFile:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, data):
            written = self.fh.write(data)
            self.fh.flush()  # the partial file is on disk while the listener polls
            polls.append(listener.poll_once())
            return written

    def slow_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return SlowFile(fh) if "w" in mode else fh

    monkeypatch.setattr(genericio, "open", slow_open, raising=False)
    path = str(tmp_path / "l2_step0002.gio")
    write_genericio(path, _blocks(rng))
    assert len(polls) > 3 and not any(polls)
    assert listener.poll_once() == [path]
    assert submitted == [path]
    assert (listener.stats.submit_retries, listener.stats.jobs_failed) == (0, 0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["l2_step0002.gio"]


@pytest.mark.parametrize("module", ["repro.io.genericio", "repro.service"])
def test_import_loads_neither_the_simulation_nor_scipy(module):
    """GenericIO (and the campaign service, through the Level 2 devices)
    import in a fresh interpreter without ``repro.sim`` or scipy."""
    probe = f"import sys, {module}; print(sorted({{'repro.sim', 'scipy'}} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["[]"]
