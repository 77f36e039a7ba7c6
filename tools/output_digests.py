#!/usr/bin/env python3
"""One SHA-256 digest per seeded benchmark output, to show that a change
keeps the program's outputs byte for byte.

    python3 tools/output_digests.py [--tree DIR] [--workers N]

Imports `src/` and `perfbench/` of the checkout DIR (default: the one this
script lives in), so the same script digests a parent tree and a change
tree; it changes nothing in either. BLAS runs one thread, as under
perfbench, so wide convs split by columns. `--workers N` runs the conv and
Griffin-Lim pool with N threads in all (1: the calling thread alone); the
default keeps the pool the program makes. Prints one `name digest` line
per seed-11 output:

- `sgram-b16/batch{i}`: the three batches of rounds 0-2 of `sgram-b16`
  (the float32 output array's bytes);
- `tts-b1/{n}symbols`: the five WAVs of round 0 of `tts-b1`, in the order
  the round makes them (the file's bytes);
- `train-toy/...`: one `train-toy` chain (24 teacher and 24 student steps)
  on the seed's toy corpus: each trainer's history without wall times, the
  teacher's `final_eval`, the student's `train_eval` (the reprs of the
  values, so every float digit counts) and the durations sidecar's bytes.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
SGRAM_ROUNDS = 3


def digest(data):
    return hashlib.sha256(data).hexdigest()


def sgram_digests(workloads, pipeline, seed, work):
    import numpy as np

    bench = workloads.SgramB16(seed, work, clock=None)
    bench.model, _ = workloads.prepare_inference_student(
        pipeline.default_config(), seed, work)
    for index in range(SGRAM_ROUNDS):
        batch = bench.make_batch(np.random.default_rng([seed, 3, index]))
        output, _ = bench.render(batch)
        yield f"sgram-b16/batch{index}", digest(output.tobytes())


def tts_digests(workloads, pipeline, seed, work):
    import numpy as np

    cfg = pipeline.default_config()
    model, stats = workloads.prepare_inference_student(cfg, seed, work)
    wav = work / "out.wav"
    rng = np.random.default_rng([seed, 3, 0])
    for n_symbols in rng.permutation(workloads.TTS_LADDER):
        text, _ = workloads.sentence(rng, int(n_symbols))
        pipeline.run_synthesize(cfg, None, wav, text=text, model=model,
                                stats=stats)
        yield f"tts-b1/{n_symbols}symbols", digest(wav.read_bytes())


def without_wall_time(history):
    return [{k: v for k, v in row.items() if k != "wall_s"} for row in history]


def train_digests(workloads, pipeline, seed, work):
    corpus = pipeline.make_toy_corpus(work / "corpus",
                                      count=workloads.TOY_UTTERANCES, seed=seed)
    cfg = pipeline.load_config(
        pipeline.write_toy_config(work, corpus_root=corpus))
    # the workload's own chain, without the step clock its set-up installs
    teacher, student = workloads.TrainToy.chain(
        SimpleNamespace(cfg=cfg, seed=seed), work / "chain",
        workloads.TEACHER_STEPS, workloads.STUDENT_STEPS)
    for name, value in (
            ("teacher_history", without_wall_time(teacher["history"])),
            ("teacher_final_eval", teacher["final_eval"]),
            ("student_history", without_wall_time(student["history"])),
            ("student_train_eval", student["train_eval"])):
        yield f"train-toy/{name}", digest(repr(value).encode())
    sidecar = Path(cfg.data.root) / cfg.data.durations
    yield "train-toy/durations", digest(sidecar.read_bytes())


def use_workers(workers):
    """Make the package's pool run `workers` threads in all."""
    from concurrent.futures import ThreadPoolExecutor

    from melsynth.nn_core import pool

    threads = ThreadPoolExecutor(workers - 1) if workers > 1 else None
    pool.worker_pool = lambda: (threads, workers)
    return threads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=Path, default=ROOT)
    parser.add_argument("--workers", type=int, default=None)
    args = parser.parse_args(argv)
    if args.workers is not None and args.workers < 1:
        parser.error("--workers is at least 1")
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    from melsynth import pipeline

    import workloads

    threads = None if args.workers is None else use_workers(args.workers)
    try:
        for part in (sgram_digests, tts_digests, train_digests):
            with tempfile.TemporaryDirectory() as work:
                for name, value in part(workloads, pipeline, SEED, Path(work)):
                    print(name, value, flush=True)
    finally:
        if threads is not None:
            threads.shutdown()


if __name__ == "__main__":
    main()
