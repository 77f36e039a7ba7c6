"""Sectioned key=value config: defaults, parsing, rejection, round trip."""

import pytest

from melsynth.pipeline import (
    ConfigError,
    architecture_text,
    config_to_text,
    default_config,
    load_config,
    parse_config,
)


class TestDefaults:
    def test_training_defaults(self):
        cfg = default_config()
        assert cfg.training.batch_size == 64
        assert cfg.training.base_lr == pytest.approx(0.002)
        assert cfg.training.warmup_epochs == 30
        assert cfg.training.grad_clip == pytest.approx(1.0)

    def test_architecture_defaults(self):
        cfg = default_config()
        assert cfg.teacher.residual_channels == 40
        assert cfg.teacher.decoder_blocks == 14
        assert cfg.student.channels == 128
        assert cfg.student.encoder_blocks == 26
        assert cfg.student.decoder_blocks == 34
        assert cfg.audio.mel_bins == 80
        assert cfg.audio.hop_length == 256

    def test_empty_text_gives_defaults(self):
        assert parse_config("") == default_config()


class TestParsing:
    def test_overrides_apply(self):
        cfg = parse_config("[training]\nbatch_size = 8\n\n[teacher]\nepochs = 3\n")
        assert cfg.training.batch_size == 8
        assert cfg.teacher.epochs == 3
        # untouched keys keep defaults
        assert cfg.training.base_lr == pytest.approx(0.002)

    def test_comments_and_blank_lines_skipped(self):
        cfg = parse_config("# top\n[audio]\n# inline section comment\n\nn_fft = 2048  # trailing\n")
        assert cfg.audio.n_fft == 2048

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[vocoder]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[training]\nbatch_sise = 8\n")

    def test_key_outside_section_rejected(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config("batch_size = 8\n")

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config("[training]\nbatch_size = many\n")

    def test_window_longer_than_fft_rejected(self):
        with pytest.raises(ConfigError,
                           match=r"my\.cfg: .*win_length = 2048 .*n_fft = 1024"):
            parse_config("[audio]\nwin_length = 2048\n", source="my.cfg")

    def test_zero_window_rejected(self):
        with pytest.raises(ConfigError, match="win_length = 0 .*n_fft = 1024"):
            parse_config("[audio]\nwin_length = 0\n")

    @pytest.mark.parametrize("hop", [0, -256])
    def test_non_positive_hop_rejected(self, hop):
        with pytest.raises(ConfigError, match=f"hop_length = {hop} "):
            parse_config(f"[audio]\nhop_length = {hop}\n")

    def test_window_equal_to_fft_accepted(self):
        cfg = parse_config("[audio]\nn_fft = 512\nwin_length = 512\nhop_length = 1\n")
        assert (cfg.audio.n_fft, cfg.audio.win_length, cfg.audio.hop_length) == (512, 512, 1)

    def test_stft_sizes_checked_on_load(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[audio]\nn_fft = 512\n")
        with pytest.raises(ConfigError, match="bad.cfg"):
            load_config(path)

    def test_missing_file_named_in_error(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.cfg"):
            load_config(tmp_path / "nope.cfg")


class TestRoundTrip:
    def test_text_round_trip(self):
        cfg = default_config()
        cfg.training.batch_size = 5
        cfg.audio.fmax = 7600.0
        cfg.data.root = "/some/where"
        assert parse_config(config_to_text(cfg)) == cfg

    def test_architecture_text_stable_under_round_trip(self):
        cfg = default_config()
        cfg.student.encoder_blocks = 20
        again = parse_config(config_to_text(cfg))
        for kind in ("teacher", "student"):
            assert architecture_text(cfg, kind) == architecture_text(again, kind)


class TestArchitectureText:
    def test_kinds_differ(self):
        cfg = default_config()
        assert architecture_text(cfg, "teacher") != architecture_text(cfg, "student")

    def test_schedule_changes_do_not_affect_it(self):
        a = default_config()
        b = default_config()
        b.teacher.epochs = 9999
        b.training.base_lr = 1.0
        assert architecture_text(a, "teacher") == architecture_text(b, "teacher")

    def test_structural_changes_do_affect_it(self):
        a = default_config()
        b = default_config()
        b.student.encoder_blocks = 20
        assert architecture_text(a, "student") != architecture_text(b, "student")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            architecture_text(default_config(), "vocoder")
