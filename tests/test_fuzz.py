"""Every file reader, fed any bytes, either parses them or raises its module's
own error (exit 2 in the CLI). Readers that open the files their input names
may also raise the OSError of that open.

Inputs are arbitrary byte strings and mutations of a valid file, so that
the fuzzer gets past the first header check.
"""
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from drtricks.data import (DataError, gen_ordinal_dataset, gen_seg_dataset, read_dataset_csv,
                           read_image, read_pgm, read_seg_dataset, write_dataset_csv,
                           write_pgm, write_seg_dataset)
from drtricks.ensemble import load_ensemble, save_ensemble
from drtricks.models import MLP, CheckpointError, load_checkpoint, save_checkpoint

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=100,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


#: Bytes that end a field or change a number's meaning, each drawn alone as
#: often as all other chunks together.
SPECIAL = [bytes([b]) for b in b"\0\n ,-0.9\"[{:"]
CHUNKS = st.one_of(st.sampled_from(SPECIAL), st.binary(min_size=1, max_size=4))


@st.composite
def mutated(draw, valid: bytes) -> bytes:
    """``valid`` after a few random overwrites, insertions, deletions and a cut."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["set", "insert", "delete", "cut"]))
        chunk = draw(CHUNKS)
        if op == "set":
            data[at:at + len(chunk)] = chunk
        elif op == "insert":
            data[at:at] = chunk
        elif op == "delete":
            del data[at:at + len(chunk)]
        else:
            del data[at:]
    return bytes(data)


def inputs(valid: bytes):
    return st.one_of(st.binary(max_size=64), mutated(valid))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One valid file per reader, as bytes; the segmentation index and the
    manifest name files that exist beside them."""
    root = tmp_path_factory.mktemp("valid")
    write_pgm(root / "image.pgm", np.arange(64, dtype=np.uint8).reshape(8, 8))
    write_dataset_csv(root / "data.csv", gen_ordinal_dataset(30, dim=2, seed=0))
    write_seg_dataset(root / "seg", gen_seg_dataset(1, 32, seed=0))
    model = MLP([2, 1], "scalar")
    save_ensemble(root / "ens", (model,), (0,))
    save_checkpoint(root / "model.ckpt", model)
    return {name: (root / path).read_bytes() for name, path in (
        ("pgm", "image.pgm"), ("csv", "data.csv"), ("index", "seg/index.csv"),
        ("manifest", "ens/ensemble.json"), ("checkpoint", "model.ckpt"))}, root


def _read(read, path, data: bytes, errors):
    path.write_bytes(data)
    try:
        read(path)
    except errors:
        pass


def test_pgm_readers(valid, tmp_path):
    files, _root = valid

    @FUZZ
    @given(inputs(files["pgm"]))
    @example(b"P5\n-5 -5\n255\n" + bytes(25))
    def check(data):
        _read(read_pgm, tmp_path / "x.pgm", data, DataError)
        _read(read_image, tmp_path / "x.pgm", data, DataError)

    check()


def test_dataset_csv_reader(valid, tmp_path):
    files, _root = valid

    @FUZZ
    @given(inputs(files["csv"]))
    @example(b"id,feat_0,label\n0," + b"1" * 140_000 + b",1\n")
    def check(data):
        _read(lambda p: read_dataset_csv(p, "grading"), tmp_path / "x.csv", data, DataError)

    check()


def test_segmentation_index_reader(valid, tmp_path):
    files, root = valid
    seg = root / "seg"  # the index is overwritten; the images it names stay

    @FUZZ
    @given(inputs(files["index"]))
    @example(b"id,image,has_masks\n0,a\0b.pgm,0\n")
    def check(data):
        _read(lambda p: read_seg_dataset(p.parent), seg / "index.csv", data, (DataError, OSError))

    check()


def test_checkpoint_reader(valid, tmp_path):
    files, _root = valid

    @FUZZ
    @given(inputs(files["checkpoint"]))
    def check(data):
        _read(load_checkpoint, tmp_path / "x.ckpt", data, CheckpointError)

    check()


def test_manifest_reader(valid, tmp_path):
    files, root = valid
    ens = root / "ens"  # the manifest is overwritten; its member checkpoint stays

    @FUZZ
    @given(inputs(files["manifest"]))
    @example(json.dumps({"members": [{"path": "a\0b", "seed": 0}]}).encode())
    @example(b"[" * 100_000)
    def check(data):
        _read(load_ensemble, ens / "ensemble.json", data, (CheckpointError, OSError))

    check()
