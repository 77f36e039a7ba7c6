"""Command line entry point.

Exit codes: 0 success, 1 usage error, 2 data/config/checkpoint error,
3 numeric failure during training or synthesis.
"""

from __future__ import annotations

import argparse
import sys


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _count(text):
    """argparse type of step and repeat counts: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    parser = _Parser(prog="melsynth",
                     description="teacher/student spectrogram synthesis")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    def common(p, checkpoint=False):
        p.add_argument("--config", metavar="PATH",
                       help="config file (defaults: full-size architecture)")
        p.add_argument("--seed", type=int, default=None,
                       help="override [training] seed")
        if checkpoint:
            p.add_argument("--checkpoint", metavar="PATH", required=True)

    p = sub.add_parser("make-toy", help="generate the synthetic toy corpus")
    p.add_argument("--out", metavar="DIR", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("train-teacher", help="train the aligner")
    common(p)
    p.add_argument("--out", metavar="DIR", required=True)
    p.add_argument("--max-steps", type=_count, default=None)
    p.add_argument("--resume", metavar="PATH", default=None)

    p = sub.add_parser("extract-durations",
                       help="write per-phoneme frame counts for the corpus")
    common(p, checkpoint=True)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="sidecar path (default: corpus root)")

    p = sub.add_parser("train-student", help="train the parallel synthesizer")
    common(p)
    p.add_argument("--out", metavar="DIR", required=True)
    p.add_argument("--durations", metavar="PATH", default=None)
    p.add_argument("--max-steps", type=_count, default=None)
    p.add_argument("--resume", metavar="PATH", default=None)

    p = sub.add_parser("synthesize", help="text or phonemes to a WAV file")
    common(p, checkpoint=True)
    p.add_argument("--out", metavar="PATH", required=True)
    p.add_argument("--text", default=None)
    p.add_argument("--phonemes", default=None,
                   help="space-separated symbols, bypasses the lexicon")

    p = sub.add_parser("benchmark", help="inference timing table")
    common(p, checkpoint=True)
    p.add_argument("--batch-sizes", default="1,2,4,8,16")
    p.add_argument("--repeats", type=_count, default=10)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the table as CSV")
    p.add_argument("--no-vocode", action="store_true",
                   help="skip phase reconstruction timing")
    return parser


def _load_config(args):
    from .pipeline import default_config, load_config
    if getattr(args, "config", None):
        return load_config(args.config)
    return default_config()


def _cmd_make_toy(args):
    from .pipeline import make_toy_corpus, write_toy_config
    out = make_toy_corpus(args.out, count=args.count, seed=args.seed)
    cfg_path = write_toy_config(out)
    print(f"toy corpus with {args.count} utterances under {out}")
    print(f"config: {cfg_path}")


def _cmd_train_teacher(args):
    from .pipeline import run_teacher_training
    cfg = _load_config(args)
    result = run_teacher_training(cfg, args.out, seed=args.seed,
                                  max_steps=args.max_steps,
                                  resume=args.resume, quiet=False)
    ev = result["final_eval"]
    print(f"teacher checkpoint: {result['checkpoint']}")
    print(f"final eval: mae {ev['mae']:.4f} guided {ev['guided']:.5f} "
          f"diagonality {ev['diagonality']:.4f}")


def _cmd_extract_durations(args):
    from .pipeline import run_extract_durations
    cfg = _load_config(args)
    out = run_extract_durations(cfg, checkpoint_path=args.checkpoint,
                                out_path=args.out)
    print(f"durations sidecar: {out}")


def _cmd_train_student(args):
    from .pipeline import run_student_training
    cfg = _load_config(args)
    result = run_student_training(cfg, args.out, durations_path=args.durations,
                                  seed=args.seed, max_steps=args.max_steps,
                                  resume=args.resume, quiet=False)
    ev = result["train_eval"]
    print(f"student checkpoint: {result['checkpoint']}")
    print(f"train set: mae {ev['mae']:.4f} ssim {ev['ssim']:.4f}")


def _cmd_synthesize(args):
    if (args.text is None) == (args.phonemes is None):
        raise UsageError("give exactly one of --text or --phonemes")
    from .pipeline import run_synthesize
    cfg = _load_config(args)
    result = run_synthesize(cfg, args.checkpoint, args.out, text=args.text,
                            phonemes=args.phonemes)
    print(f"wrote {result['path']}: {result['frames']} frames, "
          f"{result['seconds']:.2f} s")


def _cmd_benchmark(args):
    from .pipeline import (format_table, load_student, run_benchmark,
                           write_bench_csv)
    try:
        batch_sizes = [int(v) for v in args.batch_sizes.split(",") if v.strip()]
    except ValueError:
        raise UsageError(f"bad --batch-sizes value: {args.batch_sizes!r}")
    if not batch_sizes or min(batch_sizes) < 1:
        raise UsageError(f"bad --batch-sizes value: {args.batch_sizes!r}")
    cfg = _load_config(args)
    model, stats = load_student(cfg, args.checkpoint)
    rows, audio_seconds = run_benchmark(model, cfg, stats,
                                        batch_sizes=batch_sizes,
                                        repeats=args.repeats,
                                        vocode=not args.no_vocode)
    print(format_table(rows, audio_seconds))
    if args.out:
        print(f"csv: {write_bench_csv(rows, args.out)}")


_HANDLERS = {
    "make-toy": _cmd_make_toy,
    "train-teacher": _cmd_train_teacher,
    "extract-durations": _cmd_extract_durations,
    "train-student": _cmd_train_student,
    "synthesize": _cmd_synthesize,
    "benchmark": _cmd_benchmark,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    from .audio_frontend import DatasetError
    from .nn_core import NonFiniteError
    from .pipeline import CheckpointError, ConfigError
    try:
        _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, ConfigError, CheckpointError, FileNotFoundError,
            PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
