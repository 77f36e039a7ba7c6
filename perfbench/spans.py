"""Spans and counters installed around melsynth's public functions.

Nothing here edits the program. Wrappers are installed from outside, at the
name each caller looks up: every module binding that holds the function
(``from .x import f`` copies the reference into the importing module), or the
class attribute for methods. Uninstalling restores exactly what was there.

A span records (name, start, end, parent span, operation id). Spans are kept
in memory; self time is a span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> "module:attribute" or "module:Class.method" where it is defined
TARGETS = {
    "nn_core.conv1d_forward": "melsynth.nn_core.kernels:conv1d_forward",
    "nn_core.conv1d_grad_input": "melsynth.nn_core.kernels:conv1d_grad_input",
    "nn_core.conv1d_grad_weight": "melsynth.nn_core.kernels:conv1d_grad_weight",
    "nn_core.conv1d": "melsynth.nn_core.functional:conv1d",
    "nn_core.BatchNormTemporal": "melsynth.nn_core.layers:BatchNormTemporal.forward",
    "nn_core.Tensor.backward": "melsynth.nn_core.tensor:Tensor.backward",
    "nn_core.Adam.step": "melsynth.nn_core.optim:Adam.step",
    "audio_frontend.griffin_lim": "melsynth.audio_frontend.griffin_lim:griffin_lim",
    "audio_frontend.istft": "melsynth.audio_frontend.griffin_lim:istft",
    "audio_frontend.mel_to_linear_magnitude":
        "melsynth.audio_frontend.griffin_lim:mel_to_linear_magnitude",
    "audio_frontend.stft_magnitude": "melsynth.audio_frontend.mel:stft_magnitude",
    "audio_frontend.wav_to_mel": "melsynth.audio_frontend.mel:wav_to_mel",
    "audio_frontend.mel_filterbank": "melsynth.audio_frontend.mel:mel_filterbank",
    "audio_frontend.save_wav": "melsynth.audio_frontend.dataset:save_wav",
    "student.encode": "melsynth.student.model:StudentModel.encode",
    "student.predict_log_durations":
        "melsynth.student.model:StudentModel.predict_log_durations",
    "student.decode": "melsynth.student.model:StudentModel.decode",
    "student.expand_encodings": "melsynth.student.expand:expand_encodings",
    "student.ssim_index": "melsynth.student.ssim:ssim_index",
    "student.training_step": "melsynth.student.train:student_training_step",
    "teacher.forward": "melsynth.teacher.model:TeacherModel.forward",
    "teacher.build_inputs": "melsynth.teacher.train:build_inputs",
    "teacher.extract_durations": "melsynth.teacher.align:extract_durations",
    "teacher.masked_attention_path": "melsynth.teacher.align:masked_attention_path",
    "pipeline.save_checkpoint": "melsynth.pipeline.checkpoint:save_checkpoint",
    "pipeline.load_checkpoint": "melsynth.pipeline.checkpoint:load_checkpoint",
    "pipeline.evaluate_teacher": "melsynth.pipeline.trainers:evaluate_teacher",
    "pipeline.evaluate_student": "melsynth.pipeline.trainers:evaluate_student",
    "pipeline.MetricsLog.append": "melsynth.pipeline.trainers:MetricsLog.append",
}
TAPE_NODE_TARGET = "melsynth.nn_core.tensor:Tensor.from_op"
CONV_SPANS = ("nn_core.conv1d", "nn_core.conv1d_grad_input",
              "nn_core.conv1d_grad_weight")
STUDENT_STEP = "student.training_step"


class TargetMissing(LookupError):
    pass


def _resolve(where):
    """(owner, attribute, raw value) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = where.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TargetMissing(where) from exc
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise TargetMissing(where)
    try:
        raw = inspect.getattr_static(owner, attr)
    except AttributeError as exc:
        raise TargetMissing(where) from exc
    return owner, attr, raw


def _unwrap(value):
    while hasattr(value, "__wrapped__"):
        value = value.__wrapped__
    return value


class Rebinder:
    """Replaces a function at every lookup site and puts it back afterwards."""

    def __init__(self):
        self._saved = []  # (owner, attribute, previous raw value)

    def replace(self, where, make_wrapper):
        """Wrap `where` everywhere with make_wrapper(current_binding)."""
        owner, attr, raw = _resolve(where)
        if inspect.isclass(owner):
            if isinstance(raw, staticmethod):
                new = staticmethod(make_wrapper(raw.__func__))
            else:
                new = make_wrapper(raw)
            setattr(owner, attr, new)
            self._saved.append((owner, attr, raw))
            return
        original = _unwrap(raw)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "melsynth"
                                      or name.startswith("melsynth.")):
                continue
            for key, value in list(vars(module).items()):
                if callable(value) and _unwrap(value) is original:
                    setattr(module, key, make_wrapper(value))
                    self._saved.append((module, key, value))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class Tracer:
    """Span recorder; records only while `op` names an operation."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.op = None
        self.tape_nodes = defaultdict(int)  # phase -> Tensor.from_op calls
        self.extra = defaultdict(float)  # (metric, phase) -> summed value
        self.absent = []
        self._stack = []
        self._open = defaultdict(int)
        self._rebinder = Rebinder()

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; a target the program lacks is listed as absent."""
        hooks = {
            "nn_core.conv1d_forward": _count_gflop,
            "pipeline.save_checkpoint": _count_bytes,
            "student.decode": _count_frame_fill,
        }
        for name, where in TARGETS.items():
            try:
                self._rebinder.replace(
                    where, lambda fn, n=name: self._span(n, fn, hooks.get(n)))
            except TargetMissing:
                self._absent(name)
        try:
            self._rebinder.replace(TAPE_NODE_TARGET, self._node_counter)
        except TargetMissing:
            self._absent("nn_core.Tensor.from_op")

    def uninstall(self):
        self._rebinder.restore()

    def _span(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, time.perf_counter(), 0.0, parent, tracer.op]
            tracer.spans.append(record)
            tracer._stack.append(index)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
            if hook is not None:
                tracer._count(name, hook, args, result)
            return result

        return traced

    def _count(self, name, hook, args, result):
        try:
            values = list(hook(args, result))
        except (AttributeError, IndexError, OSError, TypeError, ValueError):
            # the program changed the call this hook reads; report, not crash
            self._absent(name + " (hook)")
            return
        for metric, value in values:
            self.extra[metric, phase_of(self.op)] += value

    def _absent(self, name):
        if name not in self.absent:
            self.absent.append(name)

    def _node_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer._open[STUDENT_STEP]:
                tracer.tape_nodes[phase_of(tracer.op)] += 1
            return fn(*args, **kwargs)

        return counted

    # -- results ------------------------------------------------------------

    def totals(self):
        """(self seconds, inclusive seconds, calls), each keyed (name, phase)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s, incl_s, calls = (defaultdict(float), defaultdict(float),
                                 defaultdict(int))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            key = (name, phase_of(op))
            incl_s[key] += end - start
            self_s[key] += end - start - child[i]
            calls[key] += 1
        return self_s, incl_s, calls

    def conv_seconds_in_student_steps(self):
        """Inclusive conv time (forward and both gradients) inside the
        operations' student steps."""
        inside = [False] * len(self.spans)
        total = 0.0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            inside[i] = name == STUDENT_STEP or (parent >= 0 and inside[parent])
            if inside[i] and name in CONV_SPANS and phase_of(op) == "op":
                total += end - start
        return total

    def write(self, path):
        """Spans as one JSON array per line: name, start, end, parent, op."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def phase_of(op):
    return "setup" if isinstance(op, str) else "op"


def _count_gflop(args, result):
    xpad, weight = args[0], args[1]
    batch, out_time = xpad.shape[0], args[4]
    cout, cin, ksize = weight.shape
    yield "nn_core.conv1d_forward.gflop", 2e-9 * cout * cin * ksize * batch * out_time


def _count_bytes(args, result):
    yield "pipeline.save_checkpoint.bytes", float(os.path.getsize(args[0]))


def _count_frame_fill(args, result):
    expanded = args[1]
    frame_mask = args[2] if len(args) > 2 else None
    _, _, frames = expanded.shape
    computed = expanded.shape[0] * frames
    if frame_mask is not None and not isinstance(frame_mask, np.ndarray):
        frame_mask = frame_mask.data  # a Tensor
    yield ("student.frames_useful",
           computed if frame_mask is None else float(frame_mask.sum()))
    yield "student.frames_computed", float(computed)


# metric name -> (how it is computed, unit, better)
#   ("self", span) self seconds per op; ("calls", span) calls per op;
#   ("extra", key) hook total per op; ("setup_self", span) self seconds per
#   set-up, for layers that only run while setting up.
PER_LAYER = {
    "nn_core.conv1d_forward.self_s": (("self", "nn_core.conv1d_forward"), "s/op"),
    "nn_core.conv1d_forward.calls": (("calls", "nn_core.conv1d_forward"), "calls/op"),
    "nn_core.conv1d_forward.gflop": (("extra", "nn_core.conv1d_forward.gflop"), "GFLOP/op"),
    "nn_core.conv1d_grad_input.self_s": (("self", "nn_core.conv1d_grad_input"), "s/op"),
    "nn_core.conv1d_grad_weight.self_s": (("self", "nn_core.conv1d_grad_weight"), "s/op"),
    "nn_core.conv1d.self_s": (("self", "nn_core.conv1d"), "s/op"),
    "nn_core.BatchNormTemporal.self_s": (("self", "nn_core.BatchNormTemporal"), "s/op"),
    "nn_core.Tensor.backward.self_s": (("self", "nn_core.Tensor.backward"), "s/op"),
    "nn_core.Adam.step.self_s": (("self", "nn_core.Adam.step"), "s/op"),
    "audio_frontend.griffin_lim.self_s": (("self", "audio_frontend.griffin_lim"), "s/op"),
    "audio_frontend.istft.self_s": (("self", "audio_frontend.istft"), "s/op"),
    "audio_frontend.stft_magnitude.self_s": (("self", "audio_frontend.stft_magnitude"), "s/op"),
    "audio_frontend.stft_magnitude.calls": (("calls", "audio_frontend.stft_magnitude"), "calls/op"),
    "audio_frontend.mel_to_linear_magnitude.self_s":
        (("self", "audio_frontend.mel_to_linear_magnitude"), "s/op"),
    "audio_frontend.wav_to_mel.calls": (("calls", "audio_frontend.wav_to_mel"), "calls/op"),
    "audio_frontend.mel_filterbank.calls": (("calls", "audio_frontend.mel_filterbank"), "calls/op"),
    "audio_frontend.save_wav.self_s": (("self", "audio_frontend.save_wav"), "s/op"),
    "student.encode.calls": (("calls", "student.encode"), "calls/op"),
    "student.encode.self_s": (("self", "student.encode"), "s/op"),
    "student.predict_log_durations.self_s": (("self", "student.predict_log_durations"), "s/op"),
    "student.decode.self_s": (("self", "student.decode"), "s/op"),
    "student.expand_encodings.self_s": (("self", "student.expand_encodings"), "s/op"),
    "student.ssim_index.self_s": (("self", "student.ssim_index"), "s/op"),
    "student.ssim_index.calls": (("calls", "student.ssim_index"), "calls/op"),
    "teacher.forward.self_s": (("self", "teacher.forward"), "s/op"),
    "teacher.build_inputs.self_s": (("self", "teacher.build_inputs"), "s/op"),
    "teacher.extract_durations.self_s": (("self", "teacher.extract_durations"), "s/op"),
    "teacher.masked_attention_path.self_s": (("self", "teacher.masked_attention_path"), "s/op"),
    "pipeline.save_checkpoint.self_s": (("self", "pipeline.save_checkpoint"), "s/op"),
    "pipeline.save_checkpoint.calls": (("calls", "pipeline.save_checkpoint"), "calls/op"),
    "pipeline.save_checkpoint.bytes": (("extra", "pipeline.save_checkpoint.bytes"), "bytes/op"),
    "pipeline.load_checkpoint.self_s": (("setup_self", "pipeline.load_checkpoint"), "s/setup"),
    "pipeline.evaluate_teacher.self_s": (("self", "pipeline.evaluate_teacher"), "s/op"),
    "pipeline.evaluate_student.self_s": (("self", "pipeline.evaluate_student"), "s/op"),
    "pipeline.MetricsLog.append.self_s": (("self", "pipeline.MetricsLog.append"), "s/op"),
}


def per_layer_metrics(tracer, traced_ops, setups, traced_wall):
    """Per-layer numbers from a traced run; `traced_wall` is the ops' wall time."""
    self_s, incl_s, calls = tracer.totals()
    per_op = 1.0 / max(traced_ops, 1)
    out = {}
    for metric, ((kind, key), unit) in PER_LAYER.items():
        if kind == "self":
            value = self_s[key, "op"] * per_op
        elif kind == "calls":
            value = calls[key, "op"] * per_op
        elif kind == "extra":
            value = tracer.extra[key, "op"] * per_op
        else:
            value = self_s[key, "setup"] / max(setups, 1)
        out[metric] = (value, unit)
    useful = tracer.extra["student.frames_useful", "op"]
    computed = tracer.extra["student.frames_computed", "op"]
    out["student.frame_fill"] = (useful / computed if computed else 0.0, "ratio")
    steps = calls[STUDENT_STEP, "op"]
    out["nn_core.tape_nodes_per_step"] = (
        tracer.tape_nodes["op"] / steps if steps else 0.0, "nodes/step")
    wall = max(traced_wall, 1e-12)
    out["audio_frontend.griffin_lim.share"] = (
        incl_s["audio_frontend.griffin_lim", "op"] / wall, "ratio")
    out["nn_core.conv.share"] = (
        sum(incl_s[name, "op"] for name in CONV_SPANS) / wall, "ratio")
    step_s = incl_s[STUDENT_STEP, "op"]
    out["nn_core.conv.student_step_share"] = (
        tracer.conv_seconds_in_student_steps() / step_s if step_s else 0.0,
        "ratio")
    top_level = sum(end - start for _, start, end, parent, op in tracer.spans
                    if parent < 0 and phase_of(op) == "op")
    out["trace.unattributed_s"] = ((traced_wall - top_level) * per_op, "s/op")
    return out
