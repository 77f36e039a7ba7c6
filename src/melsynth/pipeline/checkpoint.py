"""Versioned binary weight container with an architecture guard.

Layout: magic "SPDY", format version (u32), FNV-1a 64-bit hash of the
architecture description, entry count (u32), then per entry a length-prefixed
UTF-8 name, rank + dims (u32 each) and raw little-endian float32 data. The
hash is checked before any entry is parsed, so a mismatched architecture can
never partially load.

Model state is every parameter under its dotted name and every buffer under
"buffer/<name>"; bookkeeping (kind, embedded config text, epoch/step,
normalization stats, the student's plateau schedule) rides along as float32
tensors under reserved "__meta__/" names. A load accepts exactly these names:
an entry the model or this list does not know is rejected, and weights and
buffers are copied in place, so nothing that holds a model array goes stale.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from ..audio_frontend import replacing
from .config import architecture_text, config_to_text

MAGIC = b"SPDY"
VERSION = 1
META_PREFIX = "__meta__/"
MAX_COUNT = 2 ** 24  # float32 holds every whole number up to here


class CheckpointError(ValueError):
    pass


def fnv1a_64(data):
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def save_tensors(path, named_arrays, arch_hash):
    """Write the container atomically.

    The bytes go through `replacing`: they are flushed and fsynced before
    the rename over `path`, and on any error `path` keeps its old contents.
    """
    with replacing(path) as tmp, open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", arch_hash))
        fh.write(struct.pack("<I", len(named_arrays)))
        for name, array in named_arrays.items():
            # asarray keeps 0-d shape; ascontiguousarray would promote to 1-d
            data = np.asarray(array, dtype="<f4")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            for dim in data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(data.tobytes())
        fh.flush()
        os.fsync(fh.fileno())


def _read_exact(fh, n, path, what):
    """Read n bytes, checked against the bytes left before reading."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise CheckpointError(
            f"{path}: truncated while reading {what} ({n} bytes, {left} left)")
    return fh.read(n)


def load_tensors(path, expected_hash=None):
    """Read the container; returns (name -> float32 array, stored hash)."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
        version, = struct.unpack("<I", _read_exact(fh, 4, path, "version"))
        if version != VERSION:
            raise CheckpointError(
                f"{path}: format version {version}, expected {VERSION}")
        stored, = struct.unpack("<Q", _read_exact(fh, 8, path, "hash"))
        if expected_hash is not None and stored != expected_hash:
            raise CheckpointError(
                f"{path}: architecture hash mismatch "
                f"(stored {stored:#018x}, expected {expected_hash:#018x})")
        count, = struct.unpack("<I", _read_exact(fh, 4, path, "entry count"))
        arrays = {}
        for _ in range(count):
            name_len, = struct.unpack("<I", _read_exact(fh, 4, path, "name"))
            name = _decode(_read_exact(fh, name_len, path, "name"), path)
            rank, = struct.unpack("<I", _read_exact(fh, 4, path, "rank"))
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4, path, "dims"))[0]
                for _ in range(rank))
            raw = _read_exact(fh, 4 * math.prod(shape), path, f"data of {name!r}")
            try:
                arrays[name] = np.frombuffer(raw, dtype="<f4").reshape(shape)
            except ValueError as exc:  # e.g. more dims than numpy allows
                raise CheckpointError(f"{path}: bad shape for {name!r}: {exc}") from exc
    return arrays, stored


def _text_to_array(text):
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8).astype(np.float32)


def _decode(raw, path):
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: corrupt text entry: {exc}") from exc


def _array_to_text(array, path):
    if not _whole(array, 255):
        raise CheckpointError(f"{path}: corrupt text entry: not byte values")
    return _decode(array.astype(np.uint8).tobytes(), path)


def _whole(values, top):
    """Whether every value is a whole number in [0, top].

    Finite first: rounding a signalling NaN makes numpy warn.
    """
    return bool(np.all(np.isfinite(values)) and np.all(
        (values >= 0) & (values <= top) & (values == np.round(values))))


def _state(model):
    """Checkpoint name -> the model array it is saved from and loaded into."""
    state = {name: p.data for name, p in model.named_parameters()}
    state.update((f"buffer/{name}", buf) for name, buf in model.named_buffers())
    return state


def save_checkpoint(path, model, cfg, kind, epoch=0, step=0, stats=None,
                    plateau=None):
    """Write model weights + buffers + run bookkeeping under one hash.

    Epoch and step are stored as float32, so each must be a whole number in
    [0, MAX_COUNT]; anything else raises ValueError. `plateau` is the
    student's (lr, best or NaN, bad-count) schedule state.
    """
    for what, value in (("epoch", epoch), ("step", step)):
        if not (value == int(value) and 0 <= value <= MAX_COUNT):
            raise ValueError(f"{what} {value} is not a whole number in "
                             f"[0, {MAX_COUNT}]")
    arch_hash = fnv1a_64(architecture_text(cfg, kind))
    entries = _state(model)
    entries[META_PREFIX + "kind"] = _text_to_array(kind)
    entries[META_PREFIX + "config_text"] = _text_to_array(config_to_text(cfg))
    entries[META_PREFIX + "progress"] = np.array([epoch, step], dtype=np.float32)
    if stats is not None:
        entries[META_PREFIX + "stats"] = np.asarray(stats, dtype=np.float32)
    if plateau is not None:
        entries[META_PREFIX + "plateau"] = np.asarray(plateau, dtype=np.float32)
    save_tensors(path, entries, arch_hash)


def load_checkpoint(path, model, cfg, kind):
    """Copy weights and buffers into `model` in place; returns the bookkeeping.

    All or nothing: the architecture hash, then every entry (a known name,
    its shape, finite values), that every parameter, buffer, kind and
    progress entry is present, and the stored kind are checked before
    anything is copied, so a failed load leaves the model as it was. An
    entry the model or the format does not know is an error. Progress must
    be two whole numbers in [0, MAX_COUNT]; a stored plateau schedule must
    be a finite lr above 0, a best value (finite, or NaN for none) and a
    whole bad-count of at least 0.
    """
    expected = fnv1a_64(architecture_text(cfg, kind))
    arrays, _ = load_tensors(path, expected_hash=expected)

    state = _state(model)
    meta = {}
    for name, array in arrays.items():
        key = name[len(META_PREFIX):] if name.startswith(META_PREFIX) else None
        if key in ("kind", "config_text"):
            meta[key] = _array_to_text(array, path)
        elif key == "progress":
            if not (array.shape == (2,) and _whole(array, MAX_COUNT)):
                raise CheckpointError(
                    f"{path}: {name!r} is not two whole numbers in "
                    f"[0, {MAX_COUNT}]: {array}")
            meta["epoch"], meta["step"] = int(array[0]), int(array[1])
        elif key == "stats":
            if array.shape != (2,) or not np.all(np.isfinite(array)):
                raise CheckpointError(
                    f"{path}: {name!r} is not two finite numbers: {array}")
            meta["stats"] = (float(array[0]), float(array[1]))
        elif key == "plateau":
            if not (array.shape == (3,) and np.isfinite(array[0])
                    and array[0] > 0 and not np.isinf(array[1])
                    and _whole(array[2:], np.inf)):
                raise CheckpointError(
                    f"{path}: {name!r} is not a finite lr above 0, a best "
                    f"value (finite, or NaN for none) and a whole "
                    f"bad-count of at least 0: {array}")
            lr, best, bad = (float(v) for v in array)
            meta["plateau"] = (lr, None if math.isnan(best) else best, int(bad))
        elif name not in state:
            raise CheckpointError(f"{path}: unknown entry {name!r}")
        elif array.shape != state[name].shape:
            raise CheckpointError(
                f"{path}: shape mismatch for {name!r}: "
                f"{array.shape} vs {state[name].shape}")
        elif not np.all(np.isfinite(array)):
            raise CheckpointError(f"{path}: non-finite values in {name!r}")
    required = [*state, META_PREFIX + "kind", META_PREFIX + "progress"]
    missing = [name for name in required if name not in arrays]
    if missing:
        raise CheckpointError(
            f"{path}: {len(missing)} entries missing, e.g. {missing[:3]}")
    if meta["kind"] != kind:
        raise CheckpointError(
            f"{path}: holds a {meta['kind']} model, wanted {kind}")
    # in place: an optimizer built on the model holds views of these arrays
    for name, target in state.items():
        target[...] = arrays[name]
    return meta
