#!/usr/bin/env python3
"""Griffin-Lim spectral convergence against time, per iteration count and momentum.

    python3 tools/griffin_lim_curve.py --seeds 1-10 --out griffin_lim_curve.json
    python3 tools/griffin_lim_curve.py --table griffin_lim_curve.json

Takes the requests of the first two rounds of perfbench's tts-b1 workload at
each seed (the same sentences, student weights and mels) and vocodes each one
with every (momentum, iterations) pair. Per seed it records the mean spectral
convergence (SC) of the 16-bit WAV against the magnitude its mel asks for,
computed as tts-b1's tts_spectral_convergence is, and the Griffin-Lim seconds
per second of audio (1 BLAS thread). The summary gives, per momentum, the
smallest iteration count whose mean SC is no worse than the classic algorithm
at 60 iterations and whose SC at every seed is within 1% of it. `--table`
prints the curve of a written file as a Markdown table.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from melsynth import pipeline, student  # noqa: E402
from melsynth.audio_frontend import (  # noqa: E402
    denormalize_standard,
    griffin_lim,
    load_wav,
    mel_to_linear_magnitude,
    save_wav,
    spectral_convergence,
)
from workloads import TTS_LADDER, prepare_inference_student, sentence  # noqa: E402

MOMENTA = (0.0, 0.99)
ITERATIONS = tuple(range(10, 61, 5))
BASELINE = (0.0, 60)
ROUNDS = 2
TOLERANCE = 0.01  # largest SC increase over the baseline allowed at any seed


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def requests(seed, cfg, work_dir):
    """The de-normalized mels of the first ROUNDS rounds of tts-b1."""
    model, stats = prepare_inference_student(cfg, seed, work_dir)
    for index in range(ROUNDS):
        rng = np.random.default_rng([seed, 3, index])
        for n_symbols in rng.permutation(TTS_LADDER):
            _, ids = sentence(rng, int(n_symbols))
            mel, _ = student.synthesize(model, ids)
            yield denormalize_standard(mel, *stats)


def measure(seed, cfg, work_dir):
    """{(momentum, iterations): (mean SC, Griffin-Lim s per audio s)}."""
    acfg = pipeline.audio_config(cfg)
    wav_path = work_dir / "out.wav"
    sc, seconds, audio = {}, {}, 0.0
    for mel in requests(seed, cfg, work_dir):
        magnitude = mel_to_linear_magnitude(mel, acfg)
        for key in [(m, i) for m in MOMENTA for i in ITERATIONS]:
            start = time.perf_counter()
            wave = griffin_lim(mel, key[1], acfg, momentum=key[0])
            seconds[key] = seconds.get(key, 0.0) + time.perf_counter() - start
            save_wav(wav_path, wave, acfg.sample_rate)
            written = load_wav(wav_path, acfg.sample_rate)
            sc.setdefault(key, []).append(
                spectral_convergence(magnitude, written, acfg))
        audio += wave.size / acfg.sample_rate
    return {key: (float(np.mean(sc[key])), seconds[key] / audio) for key in sc}


def summarize(per_seed):
    rows = []
    base = [per_seed[s][BASELINE][0] for s in per_seed]
    for key in next(iter(per_seed.values())):
        scs = [per_seed[s][key][0] for s in per_seed]
        rel = [a / b - 1.0 for a, b in zip(scs, base)]
        rows.append({"momentum": key[0], "iterations": key[1],
                     "mean_sc": float(np.mean(scs)),
                     "worst_seed_sc_change": max(rel),
                     "seeds_better": sum(r < 0 for r in rel),
                     "gl_s_per_audio_s": float(np.median(
                         [per_seed[s][key][1] for s in per_seed])),
                     "meets": bool(np.mean(scs) <= np.mean(base)
                                   and max(rel) <= TOLERANCE)})
    return rows


def table(rows):
    lines = ["| momentum | iterations | mean SC | worst seed vs baseline "
             "| seeds better | Griffin-Lim s per audio s | meets |",
             "|---|---|---|---|---|---|---|"]
    for r in rows:
        lines.append(f"| {r['momentum']} | {r['iterations']} "
                     f"| {r['mean_sc']:.4f} | {r['worst_seed_sc_change']:+.2%} "
                     f"| {r['seeds_better']} | {r['gl_s_per_audio_s']:.4f} "
                     f"| {'yes' if r['meets'] else 'no'} |")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default="1-10")
    out = parser.add_mutually_exclusive_group(required=True)
    out.add_argument("--out", type=Path)
    out.add_argument("--table", type=Path)
    args = parser.parse_args(argv)
    if args.table:
        print(table(json.loads(args.table.read_text())["curve"]))
        return 0
    cfg = pipeline.default_config()
    per_seed = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            work_dir = Path(tmp) / f"seed{seed}"
            work_dir.mkdir()
            per_seed[seed] = measure(seed, cfg, work_dir)
            print(f"seed {seed} done", file=sys.stderr)
    rows = summarize(per_seed)
    chosen = {m: min((r["iterations"] for r in rows
                      if r["momentum"] == m and r["meets"]), default=None)
              for m in MOMENTA}
    args.out.write_text(json.dumps({
        "command": "python3 tools/griffin_lim_curve.py " + " ".join(argv or sys.argv[1:]),
        "baseline": {"momentum": BASELINE[0], "iterations": BASELINE[1]},
        "criterion": f"mean SC <= baseline mean and every seed within "
                     f"{TOLERANCE:.0%} of its baseline SC",
        "seeds": args.seeds,
        "rounds": ROUNDS,
        "curve": rows,
        "smallest_meeting": {str(m): i for m, i in chosen.items()},
        "per_seed": {str(s): {f"{m}/{i}": v for (m, i), v in d.items()}
                     for s, d in per_seed.items()},
    }, indent=1) + "\n")
    print(table(rows))
    print(f"smallest meeting the criterion: {chosen}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
