"""Sectioned key=value config: defaults, parsing, rejection, round trip."""

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_vocoder_defaults(self):
        cfg = default_config()
        assert cfg.data.griffin_lim_iterations == 20

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

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_non_positive_griffin_lim_iterations_rejected(self, iterations):
        with pytest.raises(ConfigError, match=rf"my\.cfg: \[data\] "
                           rf"griffin_lim_iterations = {iterations} "):
            parse_config(f"[data]\ngriffin_lim_iterations = {iterations}\n",
                         source="my.cfg")

    @pytest.mark.parametrize("text,message", [
        ("[training]\nbatch_size = 0\n", r"\[training\] batch_size = 0 must be at least 1"),
        ("[training]\nbatch_size = -1\n", r"\[training\] batch_size = -1 "),
        ("[training]\ncheckpoint_every = 0\n",
         r"\[training\] checkpoint_every = 0 must be at least 1"),
        ("[teacher]\ngate_channels = 81\n", r"\[teacher\] gate_channels = 81 must be even"),
        ("[teacher]\ngate_channels = 0\n", r"\[teacher\] gate_channels = 0 must be at least 1"),
        ("[teacher]\nresidual_channels = 39\n",
         r"\[teacher\] residual_channels = 39 must be even"),
        ("[student]\nchannels = 127\n", r"\[student\] channels = 127 must be even"),
        ("[teacher]\nattention_dim = 64\n",
         r"\[teacher\] attention_dim = 64 must equal embedding_dim = 128"),
        ("[teacher]\nencoder_blocks = 0\n", r"\[teacher\] encoder_blocks = 0 must be at least 1"),
        ("[teacher]\ndecoder_blocks = 0\n", r"\[teacher\] decoder_blocks = 0 must be at least 1"),
        ("[teacher]\nkernel_size = 0\n", r"\[teacher\] kernel_size = 0 must be at least 1"),
        ("[student]\nkernel_size = -1\n", r"\[student\] kernel_size = -1 must be at least 1"),
        ("[teacher]\nembedding_dim = 0\nattention_dim = 0\n",
         r"\[teacher\] embedding_dim = 0 must be at least 1"),
        ("[audio]\nmel_bins = 0\n", r"\[audio\] mel_bins = 0 must be at least 1"),
    ])
    def test_unrunnable_model_or_trainer_value_rejected(self, text, message):
        with pytest.raises(ConfigError, match=r"my\.cfg: " + message):
            parse_config(text, source="my.cfg")

    @pytest.mark.parametrize("text,message", [
        ("[training]\nbase_lr = 0\n", r"\[training\] base_lr = 0.0 must be above 0"),
        ("[training]\ngrad_clip = -1\n", r"\[training\] grad_clip = -1.0 must be above 0"),
        ("[teacher]\nguided_g = 0\n", r"\[teacher\] guided_g = 0.0 must be above 0"),
        ("[augment]\nnoise_std = -0.1\n",
         r"\[augment\] noise_std = -0.1 must be at least 0"),
        ("[training]\nmin_lr = -1e-05\n", r"\[training\] min_lr = -1e-05 must be at least 0"),
        ("[augment]\nmax_feedback_passes = -1\n",
         r"\[augment\] max_feedback_passes = -1 must be at least 0"),
        ("[augment]\nreplace_prob = 1.5\n",
         r"\[augment\] replace_prob = 1.5 must be in \[0, 1\]"),
        ("[training]\nplateau_factor = 1.5\n",
         r"\[training\] plateau_factor = 1.5 must be in \(0, 1\]"),
        ("[student]\nencoder_blocks = -1\n",
         r"\[student\] encoder_blocks = -1 must be at least 0"),
        ("[student]\ndecoder_blocks = -2\n",
         r"\[student\] decoder_blocks = -2 must be at least 0"),
        ("[student]\nduration_blocks = -1\n",
         r"\[student\] duration_blocks = -1 must be at least 0"),
        ("[training]\nbase_lr = 0.002\nmin_lr = 0.01\n",
         r"\[training\] min_lr = 0.01 must be at most base_lr = 0.002"),
    ])
    def test_out_of_range_value_rejected(self, text, message):
        with pytest.raises(ConfigError, match=r"my\.cfg: " + message):
            parse_config(text, source="my.cfg")

    def test_range_ends_accepted_nan_rejected(self):
        cfg = parse_config("[augment]\nnoise_std = 0\nmax_feedback_passes = 0\n"
                           "replace_prob = 1\n[training]\nmin_lr = 0\n"
                           "plateau_factor = 1\n")
        assert (cfg.augment.replace_prob, cfg.training.plateau_factor) == (1.0, 1.0)
        cfg = parse_config("[student]\nencoder_blocks = 0\ndecoder_blocks = 0\n"
                           "duration_blocks = 0\n[training]\nbase_lr = 0.001\n"
                           "min_lr = 0.001\n")
        assert (cfg.student.decoder_blocks, cfg.training.min_lr) == (0, 0.001)
        with pytest.raises(ConfigError, match="base_lr = nan"):
            parse_config("[training]\nbase_lr = nan\n")

    def test_undecodable_file_named(self, tmp_path):
        path = tmp_path / "bin.cfg"
        path.write_bytes(b"[training]\nseed = 1\xff\n")
        with pytest.raises(ConfigError, match="bin.cfg: not UTF-8"):
            load_config(path)

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


# a value config_to_text writes and parse_config reads back unchanged: one
# line, no comment sign, no surrounding whitespace
PLAIN_TEXT = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                  blacklist_characters="#"),
    max_size=20).map(str.strip)


@st.composite
def data_and_audio(draw):
    cfg = default_config()
    data, audio = cfg.data, cfg.audio
    data.root = draw(PLAIN_TEXT)
    data.holdout = draw(st.integers())
    data.durations = draw(PLAIN_TEXT)
    data.griffin_lim_iterations = draw(st.integers(min_value=1))
    audio.sample_rate = draw(st.integers())
    audio.n_fft = draw(st.integers(1, 1 << 16))
    audio.win_length = draw(st.integers(1, audio.n_fft))
    audio.hop_length = draw(st.integers(min_value=1))
    audio.mel_bins = draw(st.integers(min_value=1))
    audio.fmin = draw(st.floats(allow_nan=False))
    audio.fmax = draw(st.floats(allow_nan=False))
    return cfg


DATA_AUDIO_KEYS = [(name, f.name, f.type) for name, section in (
    ("data", default_config().data), ("audio", default_config().audio))
    for f in fields(section)]
NUMERIC_KEYS = [(s, k) for s, k, kind in DATA_AUDIO_KEYS if kind in ("int", "float")]
MALFORMED = st.one_of(
    # no int or float literal starts with x
    st.tuples(st.sampled_from(NUMERIC_KEYS), st.text().map(lambda v: "x" + v)),
    st.tuples(st.just(("data", "griffin_lim_iterations")),
              st.integers(max_value=0).map(str)),
    st.tuples(st.just(("audio", "hop_length")), st.integers(max_value=0).map(str)),
    st.tuples(st.just(("audio", "mel_bins")), st.integers(max_value=0).map(str)),
    st.tuples(st.just(("audio", "win_length")), st.integers(max_value=0).map(str)),
)


class TestParserProperties:
    @settings(max_examples=150, deadline=None)
    @given(data_and_audio())
    def test_round_trip(self, cfg):
        assert parse_config(config_to_text(cfg)) == cfg

    @settings(max_examples=150, deadline=None)
    @given(MALFORMED)
    def test_malformed_value_is_config_error(self, case):
        (section, key), value = case
        with pytest.raises(ConfigError, match="<config>:"):
            parse_config(f"[{section}]\n{key} = {value}\n")

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(DATA_AUDIO_KEYS), st.text())
    def test_any_value_parses_or_is_config_error(self, key, value):
        section, name, _ = key
        try:
            parse_config(f"[{section}]\n{name} = {value}\n")
        except ConfigError:
            pass


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
