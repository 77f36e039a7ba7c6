"""The three benchmark workloads and the inputs they derive from the seed.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one has returned and been checked. Operations are
grouped into rounds of identical shape (the same lengths, different seeded
words), and a run always ends on a round boundary, so runs on different seeds
measure the same amount and mix of work. The exception is train-toy, whose
toy corpus draws its utterance lengths from the seed.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from melsynth import pipeline, student
from melsynth.audio_frontend import (
    LEXICON,
    PhonemeVocabulary,
    denormalize_standard,
    load_wav,
    mel_to_linear_magnitude,
    spectral_convergence,
)
from melsynth.nn_core import no_grad

import checks
import speed
from spans import Rebinder

# Output lengths in lexicon symbols (phonemes plus word boundaries). With
# every phoneme held DURATION_FRAMES frames these span about 1.1 s to 8 s of
# audio, i.e. sentences of about 3 to 24 words.
TTS_LADDER = (14, 35, 56, 77, 98)
SGRAM_BATCH = 16
SGRAM_DURATIONS = (3, 11)  # supplied frames per phoneme, inclusive
DURATION_FRAMES = 7
# Declared de-normalization stats (mean, std of raw-log mel) stored in the
# inference checkpoint; there are no trained full-size weights to take them
# from. They keep Griffin-Lim's input inside the mel floor/ceiling range.
INFERENCE_STATS = (-6.0, 2.0)
TOY_UTTERANCES = 10
TEACHER_STEPS = 24
STUDENT_STEPS = 24
WARMUP_STEPS = 4


def _words_by_length():
    by_length = {}
    for word, phones in sorted(LEXICON.items()):
        if word.isalpha():
            by_length.setdefault(len(phones), []).append(word)
    return by_length


WORDS_BY_LENGTH = _words_by_length()
LONGEST_WORD = max(WORDS_BY_LENGTH)


def sentence(rng, n_symbols):
    """Seeded lexicon words that phonemize to exactly `n_symbols` symbols."""
    words = []
    left = n_symbols
    while True:
        need = left - (1 if words else 0)  # a word boundary precedes each word
        if need <= LONGEST_WORD:
            pool = WORDS_BY_LENGTH[need]
            words.append(pool[int(rng.integers(len(pool)))])
            break
        # leave room for a boundary and at least one more phoneme
        lengths = [n for n in WORDS_BY_LENGTH if n <= need - 2]
        length = lengths[int(rng.integers(len(lengths)))]
        pool = WORDS_BY_LENGTH[length]
        words.append(pool[int(rng.integers(len(pool)))])
        left = need - length
    text = " ".join(words)
    _, ids = pipeline.phonemize(text=text)
    if len(ids) != n_symbols:
        raise RuntimeError(f"sentence generator made {len(ids)} symbols, "
                           f"wanted {n_symbols}: {text!r}")
    return text, ids


def percentile(values, q):
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Workload:
    """Set-up, then rounds of operations timed through `clock.op()`."""

    name = ""
    why = ""
    reference = speed.Reference  # the kernel that gauges host speed

    def __init__(self, seed, work_dir, clock):
        self.seed = seed
        self.work_dir = work_dir
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, count, problems):
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(problems)

    def setup(self, index):
        raise NotImplementedError

    def release(self):
        """Drop what the previous set-up holds, so it cannot raise the peak."""
        self.model = None

    def run_round(self, index):
        raise NotImplementedError

    def detail(self):
        """Workload-specific metrics: name -> (value, unit[, samples])."""
        raise NotImplementedError

    def end_to_end(self):
        """The gated metrics every workload reports, at nominal host speed
        (speed.py): op_p50_nominal_s and rtf_nominal."""
        raise NotImplementedError


def prepare_inference_student(cfg, seed, work_dir):
    """Seeded full-size student, shaped, saved and loaded as the CLI does.

    Two declared weight edits stand in for training: every phoneme predicts
    DURATION_FRAMES frames, and out_proj is scaled so the standardized
    output has unit spread (raw init emits |mel| in the tens of thousands,
    which overflows exp() in the vocoder).
    """
    vocab_size = len(PhonemeVocabulary())
    model = pipeline.build_student(cfg, vocab_size,
                                   np.random.default_rng([seed, 0]))
    model.duration_out.weight.data[...] = 0.0
    model.duration_out.bias.data[...] = np.log1p(DURATION_FRAMES)
    _, ids = sentence(np.random.default_rng([seed, 1]), 35)
    mel, _ = student.synthesize(model, ids)
    spread = float(np.std(mel))
    model.out_proj.weight.data /= spread
    model.out_proj.bias.data /= spread
    path = work_dir / "student.ckpt"
    pipeline.save_checkpoint(path, model, cfg, "student",
                             stats=INFERENCE_STATS)
    del model  # the CLI holds only the loaded student
    loaded = pipeline.build_student(cfg, vocab_size)
    meta = pipeline.load_checkpoint(path, loaded, cfg, "student")
    loaded.eval()
    return loaded, meta["stats"]


class TtsB1(Workload):
    name = "tts-b1"
    why = ("interactive text->WAV at batch 1 through run_synthesize: "
           "Griffin-Lim dominates, the conv stack is a few percent")

    def setup(self, index):
        self.cfg = pipeline.default_config()
        self.acfg = pipeline.audio_config(self.cfg)
        directory = self.work_dir / f"setup{index}"
        directory.mkdir(parents=True)
        self.model, self.stats = prepare_inference_student(
            self.cfg, self.seed, directory)
        self.wav_path = directory / "out.wav"
        text, _ = sentence(np.random.default_rng([self.seed, 2]), TTS_LADDER[0])
        pipeline.run_synthesize(self.cfg, None, self.wav_path, text=text,
                                model=self.model, stats=self.stats)
        self.latency, self.latency_nominal, self.audio_s, self.sc = \
            [], [], [], []

    def run_round(self, index):
        rng = np.random.default_rng([self.seed, 3, index])
        for n_symbols in rng.permutation(TTS_LADDER):
            text, ids = sentence(rng, int(n_symbols))
            problems = []
            with self.clock.op() as timer:
                try:
                    result = pipeline.run_synthesize(
                        self.cfg, None, self.wav_path, text=text,
                        model=self.model, stats=self.stats)
                except Exception as exc:  # a failed request is counted
                    result = None
                    problems.append(f"{type(exc).__name__}: {exc}")
            if result is not None:
                problems += self.check(ids, result)
            self.record(1, problems)
            if not problems and self.clock.measuring:
                self.latency.append(timer.seconds)
                self.latency_nominal.append(timer.nominal)
                self.audio_s.append(result["seconds"])

    def check(self, ids, result):
        frames = int(np.sum(result["durations"]))
        problems = checks.check_wav(self.wav_path, frames,
                                    self.acfg.hop_length, self.acfg.sample_rate)
        if frames != DURATION_FRAMES * len(ids):
            problems.append(f"{frames} frames for {len(ids)} symbols, "
                            f"expected {DURATION_FRAMES} each")
        if problems or not self.clock.measuring:
            return problems
        # quality, outside the timed window: the written audio against the
        # magnitude its own mel asks for
        mel, _ = student.synthesize(self.model, ids)
        magnitude = mel_to_linear_magnitude(
            denormalize_standard(mel, *self.stats), self.acfg)
        wave = load_wav(self.wav_path, self.acfg.sample_rate)
        self.sc.append(spectral_convergence(magnitude, wave, self.acfg))
        return problems

    def end_to_end(self):
        return {"op_p50_nominal_s": (percentile(self.latency_nominal, 50), "s"),
                "rtf_nominal": (sum(self.latency_nominal) / sum(self.audio_s),
                                "s/s")}

    def detail(self):
        return {
            "tts_rtf": (sum(self.latency) / sum(self.audio_s), "s/s"),
            "tts_latency_p50_s": (percentile(self.latency, 50), "s",
                                  len(self.latency)),
            "tts_spectral_convergence": (float(np.mean(self.sc)), "ratio",
                                         len(self.sc)),
        }


class SgramB16(Workload):
    name = "sgram-b16"
    why = ("offline batch-16 spectrogram rendering, variable lengths, no "
           "vocoder: conv GEMMs, batch-norm epilogue, gather and padding")
    reference = speed.StreamingReference

    def setup(self, index):
        self.cfg = pipeline.default_config()
        directory = self.work_dir / f"setup{index}"
        directory.mkdir(parents=True)
        self.model, _ = prepare_inference_student(self.cfg, self.seed,
                                                  directory)
        self.render(self.make_batch(np.random.default_rng([self.seed, 2])))
        self.batch_s, self.batch_nominal, self.useful = [], [], []

    def make_batch(self, rng):
        lengths = np.rint(np.linspace(TTS_LADDER[0], TTS_LADDER[-1],
                                      SGRAM_BATCH)).astype(int)
        items = []
        for n_symbols in rng.permutation(lengths):
            _, ids = sentence(rng, int(n_symbols))
            durations = rng.integers(SGRAM_DURATIONS[0], SGRAM_DURATIONS[1] + 1,
                                     size=len(ids))
            items.append((ids, durations))
        n_max = max(len(ids) for ids, _ in items)
        ids = np.zeros((len(items), n_max), dtype=np.int64)
        durations = np.zeros((len(items), n_max), dtype=np.int64)
        phoneme_mask = np.zeros((len(items), 1, n_max), dtype=np.float32)
        for i, (item_ids, item_durations) in enumerate(items):
            ids[i, :len(item_ids)] = item_ids
            durations[i, :len(item_ids)] = item_durations
            phoneme_mask[i, 0, :len(item_ids)] = 1.0
        return items, ids, durations, phoneme_mask

    def render(self, batch):
        _, ids, durations, phoneme_mask = batch
        with no_grad():
            encodings = self.model.encode(ids, phoneme_mask)
            expanded, frame_mask, lengths = student.expand_encodings(
                encodings, durations)
            pred = self.model.decode(expanded, frame_mask)
        return pred.data, lengths

    def run_round(self, index):
        batch = self.make_batch(np.random.default_rng([self.seed, 3, index]))
        problems = []
        with self.clock.op() as timer:
            try:
                output, lengths = self.render(batch)
            except Exception as exc:  # a failed batch is counted
                output = None
                problems.append(f"{type(exc).__name__}: {exc}")
        if output is not None:
            problems += checks.check_spectrogram_batch(output, lengths)
            if index == 0 and not problems:
                problems += self.check_batch1_parity(batch, output, lengths)
        self.record(1, problems)
        if not problems and self.clock.measuring:
            self.batch_s.append(timer.seconds)
            self.batch_nominal.append(timer.nominal)
            self.useful.append(int(np.sum(lengths)))

    def check_batch1_parity(self, batch, output, lengths):
        """Shortest and longest item against a batch-1 student.synthesize."""
        items = batch[0]
        problems = []
        for i in (int(np.argmin(lengths)), int(np.argmax(lengths))):
            ids, durations = items[i]
            single, _ = student.synthesize(self.model, ids, durations)
            problems += checks.check_parity(output[i, :, :lengths[i]], single,
                                            f"item {i}")
        return problems

    def frames_per_s(self):
        return sum(self.useful) / sum(self.batch_s)

    def end_to_end(self):
        frame_s = self.cfg.audio.hop_length / self.cfg.audio.sample_rate
        return {"op_p50_nominal_s": (percentile(self.batch_nominal, 50), "s"),
                "rtf_nominal": (sum(self.batch_nominal)
                                / (sum(self.useful) * frame_s), "s/s")}

    def detail(self):
        return {
            "sgram_frames_per_s": (self.frames_per_s(), "frames/s"),
            "sgram_batch_p50_s": (percentile(self.batch_s, 50), "s",
                                  len(self.batch_s)),
        }


class StepClock:
    """Wall time of each optimizer step inside the trainers' own loops.

    A teacher step runs from its build_inputs call (the augmentation) to the
    end of teacher_training_step; a student step is student_training_step.
    """

    def __init__(self, frame_s):
        self.frame_s = frame_s
        self.teacher, self.student = [], []  # (seconds, audio seconds)
        self._start = None
        self._rebinder = Rebinder()

    def install(self):
        self._rebinder.replace("melsynth.teacher.train:build_inputs",
                               self._mark_start)
        self._rebinder.replace("melsynth.teacher.train:teacher_training_step",
                               self._timed(self.teacher, batch_arg=2,
                                           from_mark=True))
        self._rebinder.replace("melsynth.student.train:student_training_step",
                               self._timed(self.student, batch_arg=1))

    def _mark_start(self, fn):
        clock = self

        def build_inputs(*args, **kwargs):
            if kwargs.get("model") is not None:  # training, not evaluation
                clock._start = time.perf_counter()
            return fn(*args, **kwargs)

        build_inputs.__wrapped__ = fn
        return build_inputs

    def _timed(self, sink, batch_arg, from_mark=False):
        """Wrapper factory appending (seconds, batch audio seconds) to sink."""
        clock = self

        def make(fn):
            def step(*args, **kwargs):
                start = time.perf_counter()
                if from_mark and clock._start is not None:
                    start, clock._start = clock._start, None
                result = fn(*args, **kwargs)
                seconds = time.perf_counter() - start
                frames = float(np.sum(args[batch_arg]["t_lengths"]))
                sink.append((seconds, frames * clock.frame_s))
                return result

            step.__wrapped__ = fn
            return step

        return make


class TrainToy(Workload):
    name = "train-toy"
    why = ("the CLI training chain on the toy corpus: autodiff tape, Adam, "
           "backward convs at small shapes, SSIM, alignment, wav_to_mel, "
           "evaluation and checkpoint writes")

    def __init__(self, seed, work_dir, clock):
        super().__init__(seed, work_dir, clock)
        audio = pipeline.default_config().audio  # the toy config keeps it
        # installed before any tracer, which then wraps these wrappers
        self.steps = StepClock(audio.hop_length / audio.sample_rate)
        self.steps.install()

    def setup(self, index):
        directory = self.work_dir / f"setup{index}"
        corpus = pipeline.make_toy_corpus(directory / "corpus",
                                          count=TOY_UTTERANCES, seed=self.seed)
        self.cfg = pipeline.load_config(
            pipeline.write_toy_config(directory, corpus_root=corpus))
        self.directory = directory
        self.chain(directory / "warmup", WARMUP_STEPS, WARMUP_STEPS)
        self.steps.teacher.clear()
        self.steps.student.clear()
        self.chain_s, self.chain_nominal, self.maes = [], [], []
        self.steps_nominal = []  # (seconds at nominal speed, audio seconds)

    def chain(self, out, teacher_steps, student_steps):
        teacher = pipeline.run_teacher_training(
            self.cfg, out / "teacher", seed=self.seed, max_steps=teacher_steps)
        pipeline.run_extract_durations(self.cfg, model=teacher["model"])
        trained = pipeline.run_student_training(
            self.cfg, out / "student", seed=self.seed, max_steps=student_steps)
        return teacher, trained

    def run_round(self, index):
        out = self.directory / f"chain{index}"
        problems = []
        teacher_before = len(self.steps.teacher)
        student_before = len(self.steps.student)
        with self.clock.op() as timer:
            try:
                teacher, trained = self.chain(out, TEACHER_STEPS, STUDENT_STEPS)
            except Exception as exc:  # a failed chain fails all its steps
                teacher = None
                problems.append(f"{type(exc).__name__}: {exc}")
        if teacher is not None:
            problems += checks.check_training(
                teacher, trained, TEACHER_STEPS, STUDENT_STEPS)
            maes = (teacher["final_eval"]["mae"], trained["train_eval"]["mae"])
            if self.maes and maes != self.maes[0]:
                problems.append(f"eval MAE {maes} differs from the first "
                                f"chain's {self.maes[0]} on the same seed")
            self.maes.append(maes)
        self.record(TEACHER_STEPS + STUDENT_STEPS, problems)
        shutil.rmtree(out, ignore_errors=True)
        if problems or not self.clock.measuring:
            del self.steps.teacher[teacher_before:]
            del self.steps.student[student_before:]
        else:
            self.chain_s.append(timer.seconds)
            self.chain_nominal.append(timer.nominal)
            self.steps_nominal += [
                (seconds * timer.scale, audio) for seconds, audio in
                self.steps.teacher[teacher_before:]
                + self.steps.student[student_before:]]

    def end_to_end(self):
        steps = self.steps_nominal
        return {"op_p50_nominal_s": (percentile(self.chain_nominal, 50), "s"),
                "rtf_nominal": (sum(s for s, _ in steps)
                                / sum(a for _, a in steps), "s/s")}

    def detail(self):
        teacher = [s for s, _ in self.steps.teacher]
        student_s = [s for s, _ in self.steps.student]
        out = {}
        for label, values in (("teacher", teacher), ("student", student_s)):
            for q in (50, 90):
                out[f"{label}_step_p{q}_s"] = (percentile(values, q), "s",
                                               len(values))
        out["train_wall_s"] = (percentile(self.chain_s, 50), "s",
                               len(self.chain_s))
        out["teacher_eval_mae"] = (self.maes[0][0], "MAE")
        out["student_eval_mae"] = (self.maes[0][1], "MAE")
        return out


WORKLOADS = {w.name: w for w in (TtsB1, SgramB16, TrainToy)}
