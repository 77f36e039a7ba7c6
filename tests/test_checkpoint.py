"""Binary weight container: round trips, corruption, architecture guard."""

import struct
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peek_config
from melsynth.audio_frontend import PhonemeVocabulary
from melsynth.nn_core import Adam, PlainResidualBlock
from melsynth.pipeline import (
    CheckpointError,
    default_config,
    fnv1a_64,
    load_checkpoint,
    load_tensors,
    save_checkpoint,
    save_tensors,
)
from melsynth.pipeline.trainers import build_student, build_teacher


def small_cfg():
    cfg = default_config()
    cfg.teacher.residual_channels = 8
    cfg.teacher.gate_channels = 16
    cfg.teacher.encoder_blocks = 2
    cfg.teacher.decoder_blocks = 2
    cfg.teacher.embedding_dim = 12
    cfg.teacher.attention_dim = 12
    cfg.audio.mel_bins = 8
    cfg.student.channels = 12
    cfg.student.encoder_blocks = 2
    cfg.student.decoder_blocks = 2
    cfg.student.duration_blocks = 1
    return cfg


class TestFnv1a:
    def test_known_vectors(self):
        # standard FNV-1a 64-bit test values
        assert fnv1a_64(b"") == 0xCBF29CE484222325
        assert fnv1a_64(b"a") == 0xAF63DC4C8601EC8C

    def test_string_and_bytes_agree(self):
        assert fnv1a_64("abc") == fnv1a_64(b"abc")


class TestContainer:
    def test_array_round_trip(self, tmp_path, rng):
        arrays = {
            "w": rng.normal(size=(3, 4)).astype(np.float32),
            "b": rng.normal(size=(4,)).astype(np.float32),
            "scalar": np.float32(2.5),
        }
        path = tmp_path / "t.ckpt"
        save_tensors(path, arrays, arch_hash=123)
        loaded, stored = load_tensors(path)
        assert stored == 123
        for name, a in arrays.items():
            assert np.array_equal(loaded[name], np.asarray(a, dtype=np.float32))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"w": np.zeros(2, np.float32)}, arch_hash=1)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_tensors(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"w": np.zeros((2, 2), np.float32)}, arch_hash=1)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(path)

    def test_hash_mismatch_rejected_before_entries(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"w": np.zeros(2, np.float32)}, arch_hash=10)
        # corrupt the entry region; a hash mismatch must fail without
        # ever reading that far
        raw = bytearray(path.read_bytes())
        raw[16:] = b"\xff" * (len(raw) - 16)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_tensors(path, expected_hash=11)

    def test_failed_save_keeps_old_file(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"w": np.arange(4, dtype=np.float32)}, arch_hash=1)
        before = path.read_bytes()
        # the second entry cannot be cast to float32, so the write fails
        # after the header and the first entry are already out
        with pytest.raises(ValueError):
            save_tensors(path, {"w": np.zeros(4, np.float32), "bad": "x"},
                         arch_hash=2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.ckpt"]

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(CheckpointError, match="ghost.ckpt"):
            load_tensors(tmp_path / "ghost.ckpt")

    def test_undecodable_name_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"w": np.zeros(2, np.float32)}, arch_hash=1)
        raw = bytearray(path.read_bytes())
        raw[24] = 0xFF  # the name follows magic, version, hash, count, length
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="t.ckpt"):
            load_tensors(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {}, arch_hash=1)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_tensors(path)


    @pytest.mark.parametrize("dims", [(0xFFFFFFFF, 0xFFFFFFFF), (2**31 - 1, 1)])
    def test_dims_larger_than_the_file_rejected(self, tmp_path, dims):
        path = tmp_path / "t.ckpt"
        save_tensors(path, {"w": np.zeros((2, 2), np.float32)}, arch_hash=1)
        raw = bytearray(path.read_bytes())
        # the dims follow magic, version, hash, count, name length, "w", rank
        raw[29:37] = struct.pack("<II", *dims)
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="truncated while reading data"):
            load_tensors(path)


class TestModelCheckpoint:
    def test_teacher_round_trip_bit_identical(self, tmp_path, rng):
        cfg = small_cfg()
        model = build_teacher(cfg, vocab_size=30, rng=rng)
        path = tmp_path / "teacher.ckpt"
        save_checkpoint(path, model, cfg, "teacher", epoch=3, step=17)
        clone = build_teacher(cfg, vocab_size=30,
                              rng=np.random.default_rng(999))
        meta = load_checkpoint(path, clone, cfg, "teacher")
        assert meta["epoch"] == 3 and meta["step"] == 17
        for (name, p), (name2, q) in zip(model.named_parameters(),
                                         clone.named_parameters()):
            assert name == name2
            assert np.array_equal(p.data, q.data), name

    def test_student_round_trip_including_buffers(self, tmp_path, rng):
        cfg = small_cfg()
        model = build_student(cfg, vocab_size=30, rng=rng)
        # make running stats non-trivial so the copy is observable
        for _, buf in model.named_buffers():
            buf += 0.25
        path = tmp_path / "student.ckpt"
        save_checkpoint(path, model, cfg, "student", stats=(1.5, 0.75))
        clone = build_student(cfg, vocab_size=30,
                              rng=np.random.default_rng(999))
        meta = load_checkpoint(path, clone, cfg, "student")
        assert meta["stats"] == (1.5, 0.75)
        for (name, a), (name2, b) in zip(model.named_buffers(),
                                         clone.named_buffers()):
            assert name == name2
            assert np.array_equal(a, b), name

    def test_round_trip_preserves_forward_output(self, tmp_path, rng):
        cfg = small_cfg()
        model = build_student(cfg, vocab_size=30, rng=rng)
        model.eval()
        ids = rng.integers(1, 30, size=(1, 5))
        before = model.encode(ids).data.copy()
        path = tmp_path / "student.ckpt"
        save_checkpoint(path, model, cfg, "student")
        clone = build_student(cfg, vocab_size=30,
                              rng=np.random.default_rng(999))
        load_checkpoint(path, clone, cfg, "student")
        clone.eval()
        assert np.array_equal(clone.encode(ids).data, before)

    def test_load_writes_into_the_optimizer_buffer(self, tmp_path, rng):
        # the trainers build Adam before they load a resume checkpoint, so
        # the load must copy into the views Adam holds, not rebind p.data
        cfg = small_cfg()
        model = build_student(cfg, vocab_size=30, rng=rng)
        path = tmp_path / "student.ckpt"
        save_checkpoint(path, model, cfg, "student")
        clone = build_student(cfg, vocab_size=30,
                              rng=np.random.default_rng(999))
        opt = Adam(clone.parameters(), lr=0.01)
        load_checkpoint(path, clone, cfg, "student")
        for p, q in zip(model.parameters(), clone.parameters()):
            assert np.array_equal(p.data, q.data)
            assert np.shares_memory(q.data, opt._data)
        opt.zero_grad()
        for q in clone.parameters():
            q.grad[...] = 1.0
        opt.step()
        # a first Adam step moves every weight by about lr against the sign
        # of its gradient, starting from the loaded values
        for p, q in zip(model.parameters(), clone.parameters()):
            np.testing.assert_allclose(q.data, p.data - 0.01, atol=1e-5)

    def test_architecture_mismatch_rejected_without_copy(self, tmp_path, rng):
        cfg = small_cfg()
        model = build_student(cfg, vocab_size=30, rng=rng)
        path = tmp_path / "student.ckpt"
        save_checkpoint(path, model, cfg, "student")
        other = small_cfg()
        other.student.encoder_blocks = 3
        clone = build_student(other, vocab_size=30,
                              rng=np.random.default_rng(999))
        snapshot = [p.data.copy() for p in clone.parameters()]
        with pytest.raises(CheckpointError, match="hash mismatch"):
            load_checkpoint(path, clone, other, "student")
        for p, before in zip(clone.parameters(), snapshot):
            assert np.array_equal(p.data, before)

    def test_kind_mismatch_rejected(self, tmp_path, rng):
        cfg = small_cfg()
        model = build_teacher(cfg, vocab_size=30, rng=rng)
        path = tmp_path / "teacher.ckpt"
        save_checkpoint(path, model, cfg, "teacher")
        student = build_student(cfg, vocab_size=30, rng=rng)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, student, cfg, "student")

    def test_missing_parameter_rejected_without_copy(self, tmp_path, rng):
        cfg = small_cfg()
        path = self._rewritten_student(
            tmp_path, cfg, rng, lambda arrays: arrays.pop("out_proj.weight"))
        clone, snapshot = self._snapshot(build_student(
            cfg, vocab_size=30, rng=np.random.default_rng(999)))
        with pytest.raises(CheckpointError, match="missing.*out_proj.weight"):
            load_checkpoint(path, clone, cfg, "student")
        self._assert_unchanged(clone, snapshot)

    def test_missing_buffer_rejected_without_copy(self, tmp_path, rng):
        cfg = small_cfg()
        path = self._rewritten_student(
            tmp_path, cfg, rng,
            lambda arrays: arrays.pop("buffer/decoder.blocks.1.norm.running_var"))
        clone, snapshot = self._snapshot(build_student(
            cfg, vocab_size=30, rng=np.random.default_rng(999)))
        with pytest.raises(CheckpointError, match="running_var"):
            load_checkpoint(path, clone, cfg, "student")
        self._assert_unchanged(clone, snapshot)

    def test_late_bad_shape_rejected_without_copy(self, tmp_path, rng):
        cfg = small_cfg()

        def reshape_last(arrays):
            arrays["out_proj.bias"] = np.zeros(3, np.float32)

        path = self._rewritten_student(tmp_path, cfg, rng, reshape_last)
        clone, snapshot = self._snapshot(build_student(
            cfg, vocab_size=30, rng=np.random.default_rng(999)))
        with pytest.raises(CheckpointError, match="shape mismatch"):
            load_checkpoint(path, clone, cfg, "student")
        self._assert_unchanged(clone, snapshot)

    def test_teacher_file_as_student_rejected_without_copy(self, tmp_path, rng):
        cfg = small_cfg()
        path = tmp_path / "teacher.ckpt"
        save_checkpoint(path, build_teacher(cfg, vocab_size=30, rng=rng), cfg,
                        "teacher")
        clone, snapshot = self._snapshot(build_student(cfg, vocab_size=30, rng=rng))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, clone, cfg, "student")
        self._assert_unchanged(clone, snapshot)

    def test_kind_checked_before_copy(self, tmp_path, rng):
        # student weights under the student hash, but labelled as a teacher
        cfg = small_cfg()

        def relabel(arrays):
            arrays["__meta__/kind"] = np.frombuffer(
                b"teacher", dtype=np.uint8).astype(np.float32)

        path = self._rewritten_student(tmp_path, cfg, rng, relabel)
        clone, snapshot = self._snapshot(build_student(
            cfg, vocab_size=30, rng=np.random.default_rng(999)))
        with pytest.raises(CheckpointError, match="holds a teacher model"):
            load_checkpoint(path, clone, cfg, "student")
        self._assert_unchanged(clone, snapshot)

    def test_undecodable_text_entry_rejected(self, tmp_path, rng):
        cfg = small_cfg()

        def corrupt(arrays):
            arrays["__meta__/kind"] = np.array([0xFF, 0xFE], np.float32)

        path = self._rewritten_student(tmp_path, cfg, rng, corrupt)
        model = build_student(cfg, vocab_size=30)
        with pytest.raises(CheckpointError, match="student.ckpt"):
            load_checkpoint(path, model, cfg, "student")

    @pytest.mark.parametrize("entry", ["encoder.blocks.0.conv.weight",
                                       "buffer/encoder.blocks.1.norm.running_var"])
    def test_non_finite_value_rejected_without_copy(self, tmp_path, rng, entry):
        cfg = small_cfg()

        def poison(arrays):
            arrays[entry] = arrays[entry].copy()
            arrays[entry].flat[1] = np.nan

        path = self._rewritten_student(tmp_path, cfg, rng, poison)
        clone, snapshot = self._snapshot(build_student(
            cfg, vocab_size=30, rng=np.random.default_rng(999)))
        with pytest.raises(CheckpointError, match=f"student.ckpt.*{entry}"):
            load_checkpoint(path, clone, cfg, "student")
        self._assert_unchanged(clone, snapshot)

    @pytest.mark.parametrize("key,value", [("progress", [np.inf, 3.0]),
                                           ("stats", [-6.0, np.nan]),
                                           ("stats", [-6.0])])
    def test_bad_progress_or_stats_rejected(self, tmp_path, rng, key, value):
        cfg = small_cfg()

        def poison(arrays):
            arrays["__meta__/" + key] = np.array(value, np.float32)

        path = self._rewritten_student(tmp_path, cfg, rng, poison)
        with pytest.raises(CheckpointError, match=f"student.ckpt.*{key}"):
            load_checkpoint(path, build_student(cfg, vocab_size=30), cfg, "student")

    @pytest.mark.parametrize("value", [[-5.0, -5.0], [2.5, 3.7],
                                       [0.0, 2.0 ** 24 + 2], [1.0, np.nan]])
    def test_progress_must_be_whole_counts(self, tmp_path, rng, value):
        cfg = small_cfg()

        def poison(arrays):
            arrays["__meta__/progress"] = np.array(value, np.float32)

        path = self._rewritten_student(tmp_path, cfg, rng, poison)
        with pytest.raises(CheckpointError, match="student.ckpt.*progress.*whole"):
            load_checkpoint(path, build_student(cfg, vocab_size=30), cfg, "student")

    @pytest.mark.parametrize("value", [[1e-3], [np.nan, 0.5, 0.0],
                                       [0.0, 0.5, 0.0], [-1e-3, 0.5, 0.0],
                                       [1e-3, np.inf, 0.0], [1e-3, 0.5, 1.5],
                                       [1e-3, 0.5, -1.0], [1e-3, 0.5, np.nan],
                                       [1e-3, 0.5, np.inf]])
    def test_bad_plateau_rejected(self, tmp_path, rng, value):
        cfg = small_cfg()

        def poison(arrays):
            arrays["__meta__/plateau"] = np.array(value, np.float32)

        path = self._rewritten_student(tmp_path, cfg, rng, poison)
        with pytest.raises(CheckpointError, match="student.ckpt.*plateau"):
            load_checkpoint(path, build_student(cfg, vocab_size=30), cfg, "student")

    @pytest.mark.parametrize("best,want", [(0.25, 0.25), (np.nan, None)])
    def test_plateau_read_back(self, tmp_path, rng, best, want):
        cfg = small_cfg()
        path = tmp_path / "student.ckpt"
        save_checkpoint(path, build_student(cfg, vocab_size=30, rng=rng), cfg,
                        "student", epoch=3, step=2 ** 24,
                        plateau=[0.5, best, 4])
        meta = load_checkpoint(path, build_student(cfg, vocab_size=30), cfg,
                               "student")
        assert (meta["epoch"], meta["step"]) == (3, 2 ** 24)
        assert meta["plateau"] == (0.5, want, 4)

    @pytest.mark.parametrize("progress", [{"epoch": 2 ** 24 + 1},
                                          {"step": 2 ** 24 + 1},
                                          {"step": -1}])
    def test_unstorable_progress_not_saved(self, tmp_path, rng, progress):
        cfg = small_cfg()
        path = tmp_path / "student.ckpt"
        with pytest.raises(ValueError, match="whole number"):
            save_checkpoint(path, build_student(cfg, vocab_size=30, rng=rng),
                            cfg, "student", **progress)
        assert not path.exists()

    def test_load_writes_into_the_buffers_named_buffers_yields(self, tmp_path,
                                                                rng):
        # running statistics are restored in place, like weights: the arrays
        # a caller took from named_buffers() before the load hold the values
        cfg = small_cfg()
        model = build_student(cfg, vocab_size=30, rng=rng)
        for i, (_, buf) in enumerate(model.named_buffers()):
            buf += 0.125 * (i + 1)
        path = tmp_path / "student.ckpt"
        save_checkpoint(path, model, cfg, "student")
        clone = build_student(cfg, vocab_size=30,
                              rng=np.random.default_rng(999))
        held = [buf for _, buf in clone.named_buffers()]
        load_checkpoint(path, clone, cfg, "student")
        for (_, want), got, (_, now) in zip(model.named_buffers(), held,
                                            clone.named_buffers()):
            assert now is got
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("entry", ["__meta__/progresz", "__meta__/extra",
                                       "buffer/encoder.blocks.0.norm.running_meen",
                                       "out_proj.weigh"])
    def test_unknown_entry_rejected_without_copy(self, tmp_path, rng, entry):
        # a damaged entry name is an error, not bookkeeping to skip: a
        # progress entry under a changed name must not load as no progress
        cfg = small_cfg()

        def add(arrays):
            arrays[entry] = np.array([1.0, 2.0], np.float32)

        path = self._rewritten_student(tmp_path, cfg, rng, add)
        clone, snapshot = self._snapshot(build_student(
            cfg, vocab_size=30, rng=np.random.default_rng(999)))
        with pytest.raises(CheckpointError,
                           match=f"student.ckpt: unknown entry '{entry}'"):
            load_checkpoint(path, clone, cfg, "student")
        self._assert_unchanged(clone, snapshot)

    @pytest.mark.parametrize("key", ["progress", "kind"])
    def test_missing_bookkeeping_rejected_without_copy(self, tmp_path, rng, key):
        cfg = small_cfg()
        path = self._rewritten_student(
            tmp_path, cfg, rng, lambda arrays: arrays.pop("__meta__/" + key))
        clone, snapshot = self._snapshot(build_student(
            cfg, vocab_size=30, rng=np.random.default_rng(999)))
        with pytest.raises(CheckpointError,
                           match=f"student.ckpt: 1 entries missing.*__meta__/{key}"):
            load_checkpoint(path, clone, cfg, "student")
        self._assert_unchanged(clone, snapshot)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key,at", [("progress", 0), ("progress", 1),
                                        ("plateau", 2)])
    def test_signalling_nan_count_rejected_without_warning(self, tmp_path, rng,
                                                           key, at):
        cfg = small_cfg()
        value = np.array([0.5, 0.25, 3.0] if key == "plateau" else [1.0, 2.0],
                         np.float32)
        value.view(np.uint32)[at] = 0x7F800001  # a signalling NaN

        def poison(arrays):
            arrays["__meta__/" + key] = value

        path = self._rewritten_student(tmp_path, cfg, rng, poison)
        with pytest.raises(CheckpointError, match=f"student.ckpt.*{key}"):
            load_checkpoint(path, build_student(cfg, vocab_size=30), cfg,
                            "student")

    def test_committed_file_saves_back_byte_identical(self, tmp_path):
        # pins the format: names, order, dtypes and bookkeeping layout
        path = Path(__file__).parent / "data" / "unfused_student.ckpt"
        cfg, kind, _ = peek_config(path)
        model = build_student(cfg, len(PhonemeVocabulary()))
        meta = load_checkpoint(path, model, cfg, kind)
        again = tmp_path / "again.ckpt"
        save_checkpoint(again, model, cfg, kind, epoch=meta["epoch"],
                        step=meta["step"], stats=meta["stats"])
        assert again.read_bytes() == path.read_bytes()

    @staticmethod
    def _rewritten_student(tmp_path, cfg, rng, edit):
        """A valid student checkpoint, re-saved under its own hash after edit."""
        path = tmp_path / "student.ckpt"
        save_checkpoint(path, build_student(cfg, vocab_size=30, rng=rng), cfg,
                        "student")
        arrays, stored = load_tensors(path)
        arrays = dict(arrays)
        edit(arrays)
        save_tensors(path, arrays, stored)
        return path

    @staticmethod
    def _snapshot(model):
        for _, buf in model.named_buffers():
            buf += 0.5
        return model, ([p.data.copy() for p in model.parameters()],
                       [b.copy() for _, b in model.named_buffers()])

    @staticmethod
    def _assert_unchanged(model, snapshot):
        params, buffers = snapshot
        for p, before in zip(model.parameters(), params):
            assert np.array_equal(p.data, before)
        for (_, b), before in zip(model.named_buffers(), buffers):
            assert np.array_equal(b, before)

    def test_embedded_config_reconstructs_same_hash(self, tmp_path, rng):
        from melsynth.pipeline import architecture_text
        cfg = small_cfg()
        cfg.training.batch_size = 3  # non-default, must survive embedding
        model = build_teacher(cfg, vocab_size=30, rng=rng)
        path = tmp_path / "teacher.ckpt"
        save_checkpoint(path, model, cfg, "teacher")
        embedded, kind, stored = peek_config(path)
        assert kind == "teacher"
        assert embedded == cfg
        assert fnv1a_64(architecture_text(embedded, kind)) == stored


# ---------------------------------------------------------------------------
# property: a damaged file loads or raises CheckpointError, all or nothing
# ---------------------------------------------------------------------------

def tiny_model():
    return PlainResidualBlock(2, kernel_size=2, dilation=1,
                              rng=np.random.default_rng(5))


@lru_cache(maxsize=1)
def tiny_checkpoint():
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tiny.ckpt"
        save_checkpoint(path, tiny_model(), small_cfg(), "student", epoch=2,
                        step=7, stats=(-5.0, 2.0))
        return path.read_bytes()


def loads_or_rejects(raw):
    """Load `raw` into a fresh model; a CheckpointError must leave it as it was."""
    model, snapshot = TestModelCheckpoint._snapshot(tiny_model())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "damaged.ckpt"
        path.write_bytes(raw)
        try:
            load_checkpoint(path, model, small_cfg(), "student")
        except CheckpointError:
            TestModelCheckpoint._assert_unchanged(model, snapshot)


@pytest.mark.filterwarnings("error")
class TestDamagedCheckpoint:
    def test_every_truncation(self):
        raw = tiny_checkpoint()
        for size in range(len(raw)):
            loads_or_rejects(raw[:size])

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_single_byte_change(self, data):
        raw = bytearray(tiny_checkpoint())
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] = data.draw(st.integers(0, 255).filter(lambda b: b != raw[at]))
        loads_or_rejects(bytes(raw))
