#!/usr/bin/env python3
"""melsynth benchmark: one workload in this process, one JSON result line.

    python3 perfbench/run.py --workload tts-b1 --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ../src relative to this
file. With --trace 0 the last line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (see README.md).
Exit status is non-zero, with no result line, when the program cannot be
set up at all.
"""

import os
import sys

# Fixed before numpy loads, identically for every run being compared.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
for _var in ("MELSYNTH_BACKEND", "MELSYNTH_NUM_THREADS"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 7


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("tts-b1", "sgram-b16", "train-toy"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Put ../src on the path and import what the CLI imports; returns seconds."""
    src = ROOT / "src"
    if not (src / "melsynth" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no melsynth sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import melsynth.cli  # noqa: F401
    import melsynth.pipeline  # noqa: F401
    return time.perf_counter() - start


class Timer:
    seconds = 0.0  # wall time
    scale = 1.0  # to nominal host speed (see speed.py)

    @property
    def nominal(self):
        return self.seconds * self.scale


class Clock:
    """Times operations; while tracing, tags spans with the operation id.

    The reference kernel runs after every operation, outside its time, so
    each operation sits between two kernel runs that give its scale.
    """

    def __init__(self, tracer, reference):
        self.tracer = tracer
        self.reference = reference
        self.last_reference = None
        self.references = []  # kernel seconds after each operation
        self.measuring = False  # do this round's numbers count?
        self.traced = False
        self.traced_ops = 0
        self.op_seconds = 0.0
        self.op_nominal = 0.0

    @contextlib.contextmanager
    def op(self):
        timer = Timer()
        before = self.last_reference or self.reference.run()
        if self.traced:
            self.tracer.op = self.traced_ops
            self.traced_ops += 1
        start = time.perf_counter()
        try:
            yield timer
        finally:
            timer.seconds = time.perf_counter() - start
            self.op_seconds += timer.seconds
            if self.tracer is not None:
                self.tracer.op = None
            self.last_reference = self.reference.run()
            self.references.append(self.last_reference)
            timer.scale = self.reference.scale(before, self.last_reference)
            self.op_nominal += timer.nominal


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rounds(workload, clock, seconds, tracer):
    """Rounds until `seconds` have passed; traced runs alternate untraced and
    traced rounds in pairs. Returns per-round (op seconds, op seconds at
    nominal speed) for the untraced and the traced rounds."""
    untraced, traced = [], []
    start = time.perf_counter()
    index = 0
    while True:
        clock.traced = tracer is not None and index % 2 == 1
        clock.measuring = not clock.traced
        clock.op_seconds = clock.op_nominal = 0.0
        if clock.traced:
            tracer.install()
        try:
            workload.run_round(index)
        finally:
            if clock.traced:
                tracer.uninstall()
        (traced if clock.traced else untraced).append(
            (clock.op_seconds, clock.op_nominal))
        index += 1
        if index % (2 if tracer else 1) == 0 and \
                time.perf_counter() - start >= seconds:
            return untraced, traced


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its working files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import_s = import_program()
    import spans
    from workloads import WORKLOADS

    reference = WORKLOADS[args.workload].reference()
    tracer = spans.Tracer() if args.trace else None
    clock = Clock(tracer, reference)
    work_dir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, work_dir, clock)
    try:
        setup_s = []
        references = [reference.run()]
        for index in range(SETUPS):
            workload.release()
            gc.collect()  # free the previous set-up's models before the next
            if tracer is not None:
                tracer.install()
                tracer.op = f"setup{index}"
            start = time.perf_counter()
            try:
                workload.setup(index)
            finally:
                if tracer is not None:
                    tracer.op = None
                    tracer.uninstall()
            setup_s.append(time.perf_counter() - start)
            references.append(reference.run())
        clock.last_reference = references[-1]
        setup_rss_mb = peak_rss_mb()
        untraced, traced = run_rounds(workload, clock, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    # the import is scaled by the kernel run that follows it
    setup_nominal = [s * reference.scale(a, b) for s, a, b
                     in zip(setup_s, references, references[1:])]
    end_to_end = {
        "setup_s": (import_s * reference.scale(references[0], references[0])
                    + statistics.median(setup_nominal), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"ops_failed_ratio": (workload.failed / max(workload.attempted, 1),
                                   "failed/attempted")}
    if workload.failed == 0:
        end_to_end.update(workload.end_to_end())
        detail.update(workload.detail())
    detail.update({k: end_to_end[k] for k in ("setup_s", "peak_rss_mb")})
    detail["setup_wall_s"] = (import_s + statistics.median(setup_s), "s")
    detail["host_slowdown"] = (statistics.median(
        references + clock.references) / reference.nominal_s, "x nominal")

    print("env " + json.dumps(environment(args.seed)))
    print("detail " + json.dumps({
        "workload": workload.name, "why": workload.why,
        "attempted": workload.attempted, "failed": workload.failed,
        "problems": workload.problems[:10],
        "import_s": import_s, "setup_runs_s": setup_s,
        "peak_rss_after_setup_mb": setup_rss_mb,
        "metrics": {name: dict(zip(("value", "unit", "samples"), v))
                    for name, v in detail.items()}}))
    if tracer is None:
        metrics = end_to_end
    else:
        metrics = spans.per_layer_metrics(tracer, clock.traced_ops, SETUPS,
                                          sum(s for s, _ in traced))
        metrics["trace.overhead_ratio"] = (
            statistics.median(n for _, n in traced)
            / statistics.median(n for _, n in untraced) - 1.0,
            "ratio")
        spans_path = HERE / "_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path)
        print("trace " + json.dumps({"absent": tracer.absent,
                                     "spans": len(tracer.spans),
                                     "spans_file": str(spans_path.relative_to(ROOT))}))
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
