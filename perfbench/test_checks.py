"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench -q
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from melsynth.audio_frontend import save_wav  # noqa: E402

HOP, RATE = 256, 22050


def tone(frames, peak=0.5):
    t = np.arange(HOP * (frames - 1)) / RATE
    return (peak * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32)


def test_good_wav_passes(tmp_path):
    path = tmp_path / "ok.wav"
    save_wav(path, tone(20), RATE)
    assert checks.check_wav(path, 20, HOP, RATE) == []


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_waveform_counts_as_failed(tmp_path, bad):
    wave = tone(20)
    wave[:] = bad  # what an overflowed exp() in the vocoder leads to
    path = tmp_path / "bad.wav"
    with np.errstate(invalid="ignore"):
        save_wav(path, wave, RATE)
    problems = checks.check_wav(path, 20, HOP, RATE)
    assert problems
    workload = workloads.Workload(0, tmp_path, clock=None)
    workload.record(1, problems)
    assert (workload.attempted, workload.failed) == (1, 1)


def test_wav_length_silence_and_peak(tmp_path):
    path = tmp_path / "x.wav"
    save_wav(path, tone(20), RATE)
    assert any("samples" in p for p in checks.check_wav(path, 21, HOP, RATE))
    save_wav(path, np.zeros(HOP * 19, np.float32), RATE)
    assert any("silent" in p for p in checks.check_wav(path, 20, HOP, RATE))
    save_wav(path, tone(20, peak=1.0), RATE)
    assert any("peak" in p for p in checks.check_wav(path, 20, HOP, RATE))


def test_unreadable_wav_fails(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"not a wav")
    assert checks.check_wav(path, 20, HOP, RATE)


def test_spectrogram_batch_checks():
    out = np.zeros((2, 3, 5), np.float32)
    out[0, :, :5] = 1.0
    out[1, :, :3] = 1.0
    assert checks.check_spectrogram_batch(out, [5, 3]) == []
    out[1, 0, 4] = 1e-9
    assert checks.check_spectrogram_batch(out, [5, 3])
    out[1, 0, 4] = 0.0
    out[0, 0, 0] = np.nan
    assert checks.check_spectrogram_batch(out, [5, 3])


def test_parity_is_relative_to_peak():
    ref = np.full((2, 4), 1000.0)
    assert checks.check_parity(ref + 1e-3, ref, "x") == []
    assert checks.check_parity(ref + 1.0, ref, "x")
    assert checks.check_parity(ref[:, :3], ref, "x")


def test_training_check_flags_non_finite_loss():
    teacher = {"history": [{"step": 1, "mae": 0.1, "guided": 0.0}],
               "final_eval": {"mae": 0.1}}
    trained = {"history": [{"step": 1, "mae": 0.1, "ssim_loss": np.nan,
                            "duration": 0.0}],
               "train_eval": {"mae": 0.1}}
    assert checks.check_training(teacher, trained, 1, 1)
    trained["history"][0]["ssim_loss"] = 0.5
    assert checks.check_training(teacher, trained, 1, 1) == []
    assert checks.check_training(teacher, trained, 2, 1)


@pytest.mark.parametrize("n_symbols", [2, 14, 35, 98])
def test_sentence_has_exact_length_and_is_seeded(n_symbols):
    text, ids = workloads.sentence(np.random.default_rng(7), n_symbols)
    again, _ = workloads.sentence(np.random.default_rng(7), n_symbols)
    assert len(ids) == n_symbols and text == again


def test_rebinder_reaches_every_lookup_site_and_restores():
    import importlib

    from melsynth import audio_frontend
    from melsynth.pipeline import trainers

    # the package re-exports the function under the submodule's name
    gl_module = importlib.import_module("melsynth.audio_frontend.griffin_lim")

    original = gl_module.griffin_lim

    def wrap(fn):
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    rebinder = spans.Rebinder()
    rebinder.replace("melsynth.audio_frontend.griffin_lim:griffin_lim", wrap)
    try:
        for site in (trainers.griffin_lim, audio_frontend.griffin_lim,
                     gl_module.griffin_lim):
            assert site is not original and site.__wrapped__ is original
    finally:
        rebinder.restore()
    assert trainers.griffin_lim is original
    assert audio_frontend.griffin_lim is original


def test_missing_target_is_reported_absent(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "nn_core.gone",
                        "melsynth.nn_core.kernels:no_such_kernel")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "nn_core.gone" in tracer.absent


def test_self_time_excludes_children():
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        traced_inner()
        time.sleep(0.01)

    traced_inner = tracer._span("inner", inner, None)
    traced_outer = tracer._span("outer", outer, None)
    traced_outer()  # not recording outside an operation
    assert tracer.spans == []
    tracer.op = 0
    traced_outer()
    tracer.op = None
    self_s, incl_s, calls = tracer.totals()
    assert calls["outer", "op"] == calls["inner", "op"] == 1
    assert incl_s["outer", "op"] >= incl_s["inner", "op"] >= 0.02
    assert self_s["outer", "op"] == pytest.approx(
        incl_s["outer", "op"] - incl_s["inner", "op"])
    assert [s[3] for s in tracer.spans] == [-1, 0]  # inner's parent is outer


def test_tape_nodes_counted_per_student_step_of_operations_only():
    tracer = spans.Tracer()
    node = tracer._node_counter(lambda: None)

    def step():
        for _ in range(3):
            node()

    traced_step = tracer._span(spans.STUDENT_STEP, step, None)
    node()  # outside any step
    for op in ("setup0", 0, 1):  # set-up steps are not operation steps
        tracer.op = op
        traced_step()
    tracer.op = None
    metrics = spans.per_layer_metrics(tracer, traced_ops=2, setups=1,
                                      traced_wall=1.0)
    assert metrics["nn_core.tape_nodes_per_step"] == (3.0, "nodes/step")


@pytest.mark.parametrize("kind", ["Reference", "StreamingReference"])
def test_reference_scale_takes_times_to_nominal_speed(kind):
    import speed

    reference = getattr(speed, kind)()
    kernel_s = reference.run()
    assert kernel_s > 0
    nominal = reference.nominal_s
    # an operation timed while the kernel took twice nominal counts half
    assert reference.scale(2 * nominal, 2 * nominal) == 0.5
    assert reference.scale(kernel_s, kernel_s) * kernel_s == pytest.approx(
        nominal)
