"""End-to-end pipeline: toy corpus, training loops, sidecars, CLI, timing."""

import copy
import importlib

import numpy as np
import pytest

from melsynth.audio_frontend import (
    DatasetError,
    load_dataset,
    load_wav,
    read_durations,
)
from melsynth.audio_frontend.griffin_lim import GRIFFIN_LIM_ITERATIONS
from melsynth.cli import main
from melsynth.nn_core import noam_lr
from melsynth.pipeline import trainers
from melsynth.pipeline import (
    MetricsLog,
    TOY_PHONES,
    bench_inputs,
    config_to_text,
    default_config,
    evaluate_student,
    format_table,
    load_config,
    load_tensors,
    make_toy_corpus,
    phonemize,
    run_benchmark,
    run_extract_durations,
    run_student_training,
    run_synthesize,
    run_teacher_training,
    save_checkpoint,
    save_tensors,
    spread_durations,
    write_bench_csv,
    write_pgm,
    write_toy_config,
)


def progress(checkpoint):
    """Stored (epoch, step) of a checkpoint."""
    arrays, _ = load_tensors(checkpoint)
    return tuple(int(v) for v in arrays["__meta__/progress"])


def micro_cfg(root):
    # smallest architecture that still exercises every code path
    cfg = default_config()
    cfg.data.root = str(root)
    cfg.data.holdout = 1
    cfg.data.griffin_lim_iterations = 4
    cfg.audio.mel_bins = 20
    cfg.teacher.residual_channels = 8
    cfg.teacher.gate_channels = 16
    cfg.teacher.encoder_blocks = 2
    cfg.teacher.decoder_blocks = 2
    cfg.teacher.embedding_dim = 12
    cfg.teacher.attention_dim = 12
    cfg.teacher.epochs = 2
    cfg.student.channels = 16
    cfg.student.encoder_blocks = 2
    cfg.student.decoder_blocks = 2
    cfg.student.duration_blocks = 1
    cfg.student.epochs = 2
    cfg.training.batch_size = 2
    cfg.training.warmup_epochs = 1
    cfg.training.checkpoint_every = 1
    return cfg


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("toycorpus")
    make_toy_corpus(root, count=4, seed=3)
    return root


@pytest.fixture(scope="module")
def teacher_run(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("teacher")
    cfg = micro_cfg(corpus)
    return cfg, run_teacher_training(cfg, out, max_steps=2)


@pytest.fixture(scope="module")
def sidecar(corpus, teacher_run, tmp_path_factory):
    cfg, result = teacher_run
    out = tmp_path_factory.mktemp("durations") / "durations.csv"
    return run_extract_durations(cfg, out_path=out, model=result["model"])


@pytest.fixture(scope="module")
def student_run(corpus, sidecar, tmp_path_factory):
    out = tmp_path_factory.mktemp("student")
    cfg = micro_cfg(corpus)
    return cfg, run_student_training(cfg, out, durations_path=sidecar,
                                     max_steps=2)


class TestToyCorpus:
    def test_layout_and_symbols(self, corpus):
        assert (corpus / "wavs").is_dir()
        lines = (corpus / "metadata.csv").read_text().strip().split("\n")
        assert len(lines) == 4
        tones = {s for s, (kind, _) in TOY_PHONES.items() if kind == "tone"}
        for line in lines:
            utt_id, symbols = line.split("|")
            symbols = symbols.split()
            assert 7 <= len(symbols) <= 10
            assert set(symbols) <= set(TOY_PHONES)
            # utterances start and end on steady tones
            assert symbols[0] in tones and symbols[-1] in tones
            assert (corpus / "wavs" / f"{utt_id}.wav").exists()
        assert (corpus / "phonemes.csv").read_text() \
            == (corpus / "metadata.csv").read_text()

    def test_deterministic(self, tmp_path):
        a = make_toy_corpus(tmp_path / "a", count=3, seed=7)
        b = make_toy_corpus(tmp_path / "b", count=3, seed=7)
        assert (a / "metadata.csv").read_text() == (b / "metadata.csv").read_text()
        for wav in sorted((a / "wavs").iterdir()):
            assert wav.read_bytes() == (b / "wavs" / wav.name).read_bytes()

    def test_seed_changes_content(self, tmp_path):
        a = make_toy_corpus(tmp_path / "a", count=3, seed=1)
        b = make_toy_corpus(tmp_path / "b", count=3, seed=2)
        assert (a / "metadata.csv").read_text() != (b / "metadata.csv").read_text()

    def test_loadable_and_bounded(self, corpus):
        train, holdout = load_dataset(corpus, holdout=1)
        assert len(train) == 3 and len(holdout) == 1
        for u in train + holdout:
            assert len(u.waveform) <= int(2.0 * 22050)
            assert u.phoneme_ids.min() > 0  # no padding ids in real input

    def test_config_template_parses(self, corpus, tmp_path):
        path = write_toy_config(tmp_path, corpus_root=corpus)
        cfg = load_config(path)
        assert cfg.data.root == str(corpus)
        assert cfg.teacher.residual_channels < default_config().teacher.residual_channels
        # the vocoder runs the committed curve's iteration count
        assert cfg.data.griffin_lim_iterations == GRIFFIN_LIM_ITERATIONS


class TestArtifacts:
    def test_metrics_log(self, tmp_path):
        log = MetricsLog(tmp_path / "m.csv", ["step", "loss"])
        log.append(step=1, loss=0.25)
        log.append(step=2, loss=0.125)
        lines = (tmp_path / "m.csv").read_text().strip().split("\n")
        assert lines[0] == "step,loss"
        assert lines[1] == "1,0.25"
        assert len(lines) == 3

    def test_metrics_log_appends_across_reopen(self, tmp_path):
        MetricsLog(tmp_path / "m.csv", ["step"]).append(step=1)
        MetricsLog(tmp_path / "m.csv", ["step"]).append(step=2)
        lines = (tmp_path / "m.csv").read_text().strip().split("\n")
        assert lines == ["step", "1", "2"]

    def test_write_pgm(self, tmp_path):
        write_pgm(tmp_path / "a.pgm", np.array([[0.0, 0.5], [1.0, 0.25]]))
        raw = (tmp_path / "a.pgm").read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw[len(b"P5\n2 2\n255\n"):] == bytes([0, 128, 255, 64])


class TestTeacherTraining:
    def test_artifacts_and_history(self, teacher_run):
        cfg, result = teacher_run
        assert result["checkpoint"].exists()
        assert [h["step"] for h in result["history"]] == [1, 2]
        assert all(np.isfinite(h["mae"]) and np.isfinite(h["guided"])
                   for h in result["history"])
        out = result["checkpoint"].parent
        metrics = (out / "teacher_metrics.csv").read_text().strip().split("\n")
        assert metrics[0] == "step,lr,mae,guided,grad_norm,clipped,wall_s"
        assert len(metrics) == 3
        assert (out / "teacher_eval.csv").exists()
        assert (out / "attention" / "epoch0001.pgm").exists()
        for key in ("mae", "guided", "diagonality"):
            assert np.isfinite(result["final_eval"][key])


class TestDurationExtraction:
    def test_sidecar_complete_and_consistent(self, corpus, sidecar):
        table = read_durations(sidecar)
        train, holdout = load_dataset(corpus, holdout=1)
        assert set(table) == {u.id for u in train + holdout}
        for u in train + holdout:
            d = table[u.id]
            assert len(d) == u.n_phonemes
            assert (d >= 0).all() and d.sum() > 0

    def test_rerun_is_byte_identical(self, corpus, teacher_run, sidecar,
                                     tmp_path):
        cfg, result = teacher_run
        again = run_extract_durations(cfg, out_path=tmp_path / "d.csv",
                                      model=result["model"])
        assert again.read_bytes() == sidecar.read_bytes()

    def test_missing_utterance_rejected(self, corpus, sidecar, tmp_path):
        lines = sidecar.read_text().strip().split("\n")
        crippled = tmp_path / "short.csv"
        crippled.write_text("\n".join(lines[:-1]) + "\n")
        cfg = micro_cfg(corpus)
        with pytest.raises(DatasetError, match="missing from durations"):
            run_student_training(cfg, tmp_path / "out",
                                 durations_path=crippled, max_steps=1)

    def test_length_mismatch_rejected(self, corpus, sidecar, tmp_path):
        lines = sidecar.read_text().strip().split("\n")
        utt_id, counts = lines[0].split("|")
        lines[0] = f"{utt_id}|{' '.join(counts.split()[:-1])}"
        crippled = tmp_path / "bad.csv"
        crippled.write_text("\n".join(lines) + "\n")
        cfg = micro_cfg(corpus)
        with pytest.raises(DatasetError, match="durations"):
            run_student_training(cfg, tmp_path / "out",
                                 durations_path=crippled, max_steps=1)


class TestStudentTrainingRun:
    def test_artifacts_and_history(self, student_run):
        cfg, result = student_run
        assert result["checkpoint"].exists()
        assert [h["step"] for h in result["history"]] == [1, 2]
        mean, std = result["stats"]
        assert np.isfinite(mean) and std > 0
        for key in ("mae", "ssim", "duration", "total"):
            assert np.isfinite(result["train_eval"][key])
        out = result["checkpoint"].parent
        assert (out / "student_metrics.csv").exists()
        assert (out / "student_eval.csv").exists()

    def test_failed_evaluation_restores_train_mode(self, student_run):
        cfg, result = student_run
        model = result["model"]
        model.train()
        ids = np.array([3, 4, 5])
        # 5 target frames, but the durations sum to 3
        bad = [(ids, np.array([1, 1, 1]), np.zeros((cfg.audio.mel_bins, 5),
                                                   np.float32))]
        with pytest.raises(ValueError, match="durations sum to 3"):
            evaluate_student(model, bad, cfg)
        assert model.training
        assert all(block.training for block in model.encoder.blocks)


@pytest.mark.parametrize("kind", ["teacher", "student"])
class TestResume:
    """Teacher and student share one run loop; each resumes the same way."""

    @staticmethod
    def train(kind, cfg, out, sidecar, **kwargs):
        if kind == "teacher":
            return run_teacher_training(cfg, out, **kwargs)
        return run_student_training(cfg, out, durations_path=sidecar, **kwargs)

    def test_continues_step_count(self, kind, request, sidecar, tmp_path):
        cfg, first = request.getfixturevalue(f"{kind}_run")
        resumed = self.train(kind, cfg, tmp_path, sidecar, max_steps=4,
                             resume=first["checkpoint"])
        assert [h["step"] for h in resumed["history"]] == [3, 4]
        if kind == "teacher":
            # the Noam schedule continues at step 3 (3 training utterances in
            # batches of 2 make 2 steps per epoch); the log keeps 6 digits
            warmup = cfg.training.warmup_epochs * 2
            lrs = np.loadtxt(tmp_path / "teacher_metrics.csv", delimiter=",",
                             skiprows=1, usecols=1, ndmin=1)
            assert lrs[0] == float(
                f"{noam_lr(cfg.training.base_lr, warmup, 3):.6g}")
        else:
            # stats ride the checkpoint (stored as float32)
            assert resumed["stats"] == pytest.approx(first["stats"], rel=1e-6)

    def test_counts_steps_across_a_partial_epoch(self, kind, corpus, sidecar,
                                                 tmp_path):
        cfg = micro_cfg(corpus)
        first = self.train(kind, cfg, tmp_path / "a", sidecar, max_steps=3)
        resumed = self.train(kind, cfg, tmp_path / "b", sidecar, max_steps=6,
                             resume=first["checkpoint"])
        assert [h["step"] for h in resumed["history"]] == [4, 5, 6]

    def test_nothing_left_keeps_progress(self, kind, request, sidecar,
                                         tmp_path):
        cfg, first = request.getfixturevalue(f"{kind}_run")
        again = self.train(kind, cfg, tmp_path, sidecar, max_steps=2,
                           resume=first["checkpoint"])
        assert again["history"] == []
        assert progress(again["checkpoint"]) == progress(first["checkpoint"])

    def test_each_checkpoint_written_once(self, kind, corpus, sidecar,
                                          tmp_path, monkeypatch):
        # a checkpoint every epoch; 4 steps are 2 whole epochs, so the last
        # epoch's checkpoint is the final one
        saved = []

        def counting(path, *args, epoch, step, **kwargs):
            saved.append((path.parent.name, epoch, step))
            return save_checkpoint(path, *args, epoch=epoch, step=step,
                                   **kwargs)

        monkeypatch.setattr(trainers, "save_checkpoint", counting)
        cfg = micro_cfg(corpus)
        first = self.train(kind, cfg, tmp_path / "a", sidecar, max_steps=4)
        assert saved == [("a", 1, 2), ("a", 2, 4)]
        # a finished run resumed into a new directory trains no step and
        # still writes its checkpoint there
        again = self.train(kind, cfg, tmp_path / "b", sidecar, max_steps=4,
                           resume=first["checkpoint"])
        assert saved[2:] == [("b", 2, 4)]
        assert again["checkpoint"] == tmp_path / "b" / f"{kind}.ckpt"
        assert progress(again["checkpoint"]) == (2, 4)


@pytest.fixture(scope="module")
def voiced_student(student_run):
    # two training steps still predict ~zero durations; bias the duration
    # head so synthesis tests cover a real multi-frame waveform
    cfg, result = student_run
    result["model"].duration_out.bias.data[:] = np.log(9.0)
    return cfg, result


class TestSynthesis:
    def test_phoneme_passthrough(self):
        symbols, ids = phonemize(phonemes="AA IY T")
        assert symbols == ["AA", "IY", "T"]
        assert ids.shape == (3,) and (ids > 0).all()

    def test_text_goes_through_lexicon(self):
        symbols, ids = phonemize(text="the river")
        assert "DH" in symbols and "R" in symbols
        assert len(ids) == len(symbols)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(DatasetError, match="unknown phoneme"):
            phonemize(phonemes="AA QQQ")

    def test_empty_input_rejected(self):
        with pytest.raises(DatasetError, match="no phonemes"):
            phonemize(text="   ")

    def test_wav_duration_matches_durations(self, voiced_student, tmp_path):
        cfg, result = voiced_student
        out = run_synthesize(cfg, None, tmp_path / "a.wav",
                             phonemes="AA IY UW EH OW AA",
                             model=result["model"], stats=result["stats"])
        wave = load_wav(out["path"], expected_rate=cfg.audio.sample_rate)
        assert len(out["durations"]) == 6
        assert out["frames"] == int(out["durations"].sum()) > 6
        # istft length is (frames-1)*hop + window, one window of slack
        assert abs(len(wave) - out["frames"] * cfg.audio.hop_length) \
            <= cfg.audio.win_length

    def test_synthesis_is_deterministic(self, voiced_student, tmp_path):
        cfg, result = voiced_student
        for name in ("a.wav", "b.wav"):
            run_synthesize(cfg, None, tmp_path / name, phonemes="AA M S AA",
                           model=result["model"], stats=result["stats"])
        assert (tmp_path / "a.wav").read_bytes() \
            == (tmp_path / "b.wav").read_bytes()

    def test_checkpoint_path_loads_stats(self, student_run, tmp_path):
        cfg, result = student_run
        out = run_synthesize(cfg, result["checkpoint"], tmp_path / "c.wav",
                             phonemes="AA IY AA")
        # untrained head may predict a degenerate 1-frame spectrogram;
        # the chain must still produce a valid (possibly empty) file
        assert out["path"].exists() and out["frames"] >= 1

    @pytest.mark.parametrize("training", [True, False])
    def test_passed_model_keeps_its_mode(self, voiced_student, tmp_path,
                                         training):
        cfg, result = voiced_student
        model = result["model"]
        was = model.training
        model.train(training)
        try:
            run_synthesize(cfg, None, tmp_path / "m.wav", phonemes="AA M",
                           model=model, stats=result["stats"])
            assert model.training is training
            assert model.decoder.blocks[0].norm.training is training
        finally:
            model.train(was)


class TestBenchmark:
    def test_spread_durations(self):
        d = spread_durations(838, 37)
        assert d.sum() == 838 and d.max() - d.min() <= 1

    def test_bench_inputs_shape(self):
        cfg = default_config()
        ids, durations, audio_seconds = bench_inputs(cfg)
        # 9.72 s at hop 256 / 22.05 kHz plus the leading frame
        assert durations.sum() == 1 + int(9.72 * 22050) // 256 == 838
        assert len(ids) == len(durations)
        assert audio_seconds == pytest.approx(838 * 256 / 22050)

    def test_rows_table_and_csv(self, student_run, tmp_path):
        cfg, result = student_run
        rows, audio_seconds = run_benchmark(
            result["model"], cfg, result["stats"], batch_sizes=(1, 2),
            repeats=1, vocode=False)
        assert [r.batch for r in rows] == [1, 2]
        for r in rows:
            assert r.sgram > 0 and r.audio < 1e-3 and r.rtf > 0
        table = format_table(rows, audio_seconds)
        assert "RTF" in table and "reference" in table
        csv_path = write_bench_csv(rows, tmp_path / "bench.csv")
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("batch,sgram_seconds,")
        assert len(lines) == 1 + len(rows)

    def test_no_vocode_reports_zero_audio(self, student_run):
        cfg, result = student_run
        rows, _ = run_benchmark(result["model"], cfg, result["stats"],
                                batch_sizes=(1,), repeats=2, vocode=False)
        assert rows[0].audio == 0.0 and rows[0].total == rows[0].sgram

    def test_vocoder_settings_come_from_config(self, student_run, tmp_path,
                                               monkeypatch):
        cfg, result = student_run
        cfg = copy.deepcopy(cfg)
        cfg.data.griffin_lim_iterations = 3
        calls = []

        def vocoder(mel, iterations, config):
            calls.append(iterations)
            return np.zeros(256, dtype=np.float32)

        for module in ("trainers", "bench"):
            monkeypatch.setattr(importlib.import_module(
                f"melsynth.pipeline.{module}"), "griffin_lim", vocoder)
        run_synthesize(cfg, None, tmp_path / "a.wav", phonemes="AA IY",
                       model=result["model"], stats=result["stats"])
        run_benchmark(result["model"], cfg, result["stats"],
                      batch_sizes=(1,), repeats=1)
        # one synthesis, then the benchmark's warm-up and timed run
        assert calls == [3] * 3


class TestCli:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_synthesize_needs_exactly_one_input(self, tmp_path, capsys):
        args = ["synthesize", "--checkpoint", "x.ckpt", "--out", "o.wav"]
        assert main(args) == 1
        assert main(args + ["--text", "a", "--phonemes", "AA"]) == 1

    def test_bad_batch_sizes(self, capsys):
        assert main(["benchmark", "--checkpoint", "x.ckpt",
                     "--batch-sizes", "1,zero"]) == 1
        assert main(["benchmark", "--checkpoint", "x.ckpt",
                     "--batch-sizes", "0"]) == 1

    def test_missing_config_file(self, corpus, tmp_path, capsys):
        assert main(["train-teacher", "--config", str(tmp_path / "no.cfg"),
                     "--out", str(tmp_path)]) == 2

    def test_bad_vocoder_setting_is_config_error(self, corpus, tmp_path,
                                                 capsys):
        cfg = micro_cfg(corpus)
        cfg.data.griffin_lim_iterations = 0
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        assert main(["synthesize", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--out", str(tmp_path / "o.wav"), "--phonemes", "AA"]) == 2
        assert "c.cfg: [data] griffin_lim_iterations = 0" in capsys.readouterr().err

    def test_unrunnable_training_setting_is_config_error(self, corpus, tmp_path,
                                                         capsys):
        cfg = micro_cfg(corpus)
        cfg.training.batch_size = -1
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        assert main(["train-teacher", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run"), "--max-steps", "2"]) == 2
        assert "c.cfg: [training] batch_size = -1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_out_of_range_setting_is_config_error(self, corpus, tmp_path,
                                                  capsys):
        cfg = micro_cfg(corpus)
        cfg.training.grad_clip = -1.0
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        assert main(["train-teacher", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run"), "--max-steps", "2"]) == 2
        assert "c.cfg: [training] grad_clip = -1.0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section,key", [("teacher", "kernel_size"),
                                             ("audio", "mel_bins")])
    def test_unbuildable_model_size_is_config_error(self, corpus, tmp_path,
                                                    capsys, section, key):
        cfg = micro_cfg(corpus)
        setattr(getattr(cfg, section), key, 0)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        assert main(["train-teacher", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run"), "--max-steps", "2"]) == 2
        assert f"c.cfg: [{section}] {key} = 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_bytes(b"[training]\n\xff\n")
        assert main(["train-teacher", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == 2
        assert "c.cfg: not UTF-8" in capsys.readouterr().err

    def test_undecodable_durations_is_data_error(self, corpus, tmp_path,
                                                 capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(micro_cfg(corpus)))
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"toy000|3 \xff 2\n")
        assert main(["train-student", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run"),
                     "--durations", str(bad)]) == 2
        assert "bad.csv: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["train-teacher", "--out", "o", "--max-steps", "-1"],
        ["train-teacher", "--out", "o", "--max-steps", "0"],
        ["train-student", "--out", "o", "--max-steps", "0"],
        ["train-student", "--out", "o", "--max-steps", "two"],
        ["benchmark", "--checkpoint", "x.ckpt", "--repeats", "0"],
    ])
    def test_counts_below_one_are_usage_errors(self, args, tmp_path,
                                               monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: argument --")
        assert not (tmp_path / "o").exists()

    def test_missing_checkpoint_is_data_error(self, corpus, tmp_path, capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(micro_cfg(corpus)))
        assert main(["extract-durations", "--config", str(cfg_path),
                     "--checkpoint", str(tmp_path / "no.ckpt")]) == 2

    def test_malformed_durations_is_data_error(self, corpus, tmp_path,
                                               capsys):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(micro_cfg(corpus)))
        bad = tmp_path / "bad.csv"
        bad.write_text("toy000|3 x 2\n")
        assert main(["train-student", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run"),
                     "--durations", str(bad)]) == 2
        assert "bad.csv:1" in capsys.readouterr().err

    def test_durations_not_adding_up_is_data_error(self, corpus, sidecar,
                                                   tmp_path, capsys):
        lines = sidecar.read_text().strip().split("\n")
        utt_id, counts = lines[0].split("|")
        counts = counts.split()
        counts[-1] = str(int(counts[-1]) + 5)
        lines[0] = f"{utt_id}|{' '.join(counts)}"
        bad = tmp_path / "off.csv"
        bad.write_text("\n".join(lines) + "\n")
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(micro_cfg(corpus)))
        assert main(["train-student", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run"),
                     "--durations", str(bad)]) == 2
        err = capsys.readouterr().err
        assert f"utterance {utt_id!r}: durations in sidecar {bad} sum to" in err

    @pytest.mark.parametrize("key,value", [("progress", [-5.0, -5.0]),
                                           ("progress", [2.5, 3.7]),
                                           ("plateau", [1e-3]),
                                           ("plateau", [np.nan, 0.5, 0.0])])
    def test_resume_with_bad_bookkeeping_is_data_error(
            self, corpus, sidecar, student_run, tmp_path, capsys, key, value):
        cfg, result = student_run
        arrays, stored = load_tensors(result["checkpoint"])
        arrays = dict(arrays)
        arrays["__meta__/" + key] = np.array(value, np.float32)
        bad = tmp_path / "bad.ckpt"
        save_tensors(bad, arrays, stored)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        assert main(["train-student", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run"), "--durations", str(sidecar),
                     "--resume", str(bad), "--max-steps", "4"]) == 2
        assert f"bad.ckpt: '__meta__/{key}'" in capsys.readouterr().err

    def test_resume_with_damaged_progress_name_is_data_error(
            self, corpus, teacher_run, tmp_path, capsys):
        # one changed byte in the entry name; the file still parses, and the
        # unknown entry must be rejected rather than resumed without progress
        cfg, result = teacher_run
        raw = result["checkpoint"].read_bytes()
        assert raw.count(b"__meta__/progress") == 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw.replace(b"__meta__/progress", b"__meta__/progresr"))
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        assert main(["train-teacher", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run"), "--resume", str(bad),
                     "--max-steps", "4"]) == 2
        assert (f"{bad}: unknown entry '__meta__/progresr'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key", ["progress", "kind"])
    def test_resume_without_progress_or_kind_is_data_error(
            self, corpus, teacher_run, tmp_path, capsys, key):
        cfg, result = teacher_run
        arrays, stored = load_tensors(result["checkpoint"])
        arrays = dict(arrays)
        del arrays["__meta__/" + key]
        bad = tmp_path / "bad.ckpt"
        save_tensors(bad, arrays, stored)
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        assert main(["train-teacher", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run"), "--resume", str(bad),
                     "--max-steps", "4"]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: 1 entries missing" in err and f"__meta__/{key}" in err

    @pytest.mark.parametrize("args", [
        ["synthesize", "--out", "x.wav", "--phonemes", "AA IY"],
        ["benchmark", "--batch-sizes", "1", "--repeats", "1", "--no-vocode"],
    ])
    def test_student_without_stats_is_data_error(self, student_run, tmp_path,
                                                 monkeypatch, capsys, args):
        cfg, result = student_run
        ckpt = tmp_path / "bare.ckpt"
        save_checkpoint(ckpt, result["model"], cfg, "student")
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        monkeypatch.chdir(tmp_path)
        assert main([args[0], "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), *args[1:]]) == 2
        assert f"{ckpt}: no normalization stats" in capsys.readouterr().err
        assert not (tmp_path / "x.wav").exists()

    def test_non_finite_synthesis_exits_3(self, student_run, tmp_path,
                                          capsys):
        cfg, result = student_run
        # a mel mean far above the log range overflows exp() in the vocoder
        ckpt = tmp_path / "hot.ckpt"
        save_checkpoint(ckpt, result["model"], cfg, "student",
                        stats=(1e5, 1.0))
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(config_to_text(cfg))
        out = tmp_path / "hot.wav"
        assert main(["synthesize", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt), "--out", str(out),
                     "--phonemes", "AA IY UW"]) == 3
        assert not out.exists()
        assert "mel of shape (20, " in capsys.readouterr().err

    def test_full_chain(self, tmp_path, capsys):
        root = tmp_path / "corpus"
        assert main(["make-toy", "--out", str(root), "--count", "4",
                     "--seed", "3"]) == 0
        cfg_path = tmp_path / "micro.cfg"
        cfg_path.write_text(config_to_text(micro_cfg(root)))
        out = tmp_path / "run"
        assert main(["train-teacher", "--config", str(cfg_path),
                     "--out", str(out), "--max-steps", "2"]) == 0
        assert main(["extract-durations", "--config", str(cfg_path),
                     "--checkpoint", str(out / "teacher.ckpt"),
                     "--out", str(out / "durations.csv")]) == 0
        assert main(["train-student", "--config", str(cfg_path),
                     "--out", str(out), "--max-steps", "2",
                     "--durations", str(out / "durations.csv")]) == 0
        assert main(["synthesize", "--config", str(cfg_path),
                     "--checkpoint", str(out / "student.ckpt"),
                     "--out", str(out / "utt.wav"),
                     "--phonemes", "AA IY UW"]) == 0
        assert main(["benchmark", "--config", str(cfg_path),
                     "--checkpoint", str(out / "student.ckpt"),
                     "--batch-sizes", "1", "--repeats", "1", "--no-vocode",
                     "--out", str(out / "bench.csv")]) == 0
        assert (out / "utt.wav").exists() and (out / "bench.csv").exists()
        assert "RTF" in capsys.readouterr().out
