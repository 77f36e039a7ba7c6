#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, kept raw in one BENCH file.

    python3 tools/bench_pairs.py run --parent ../parent --change . \
        --seeds 1-10 --seconds 25 --out BENCH.json [--workloads tts-b1,...]
    python3 tools/bench_pairs.py summary BENCH.json
    python3 tools/bench_pairs.py chain BENCH_pr6.json BENCH_pr7.json ...

`run` runs every workload of BENCHMARK.json, or those `--workloads` names,
once per seed on each tree, untraced, one process at a time; the side that
runs first alternates from seed to seed. Each tree runs its own
perfbench/run.py. Every line a run prints is stored unchanged. `summary`
prints, per workload and end-to-end metric, both sides' medians, the
parent's interquartile range, the pairs the change reads better in (ties
count for neither) and a verdict against the metric's bound in
BENCHMARK.json, as a Markdown table:
`worse` when the change's median is worse than the parent's by more than
the bound; `better` when it beats the parent's median by more than the
parent's IQR and the change reads better in at least 8 pairs;
`unresolved` when the parent's IQR over its median exceeds the bound; `ok`
otherwise. `chain` prints, per workload and end-to-end metric, the product
over the given files of the change/parent median ratio within each file:
the change over a stack of PRs, each measured against its own parent, as
medians drift between sessions and files.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BETTER_PAIRS = 8  # pairs a change must read better in to be called better


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(tree, workload, seed, seconds):
    cmd = [sys.executable, str(Path(tree) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True)
    return {"returncode": done.returncode,
            "lines": done.stdout.splitlines(),
            "stderr_tail": done.stderr.splitlines()[-5:]}


def cmd_run(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = args.workloads or names
    unknown = set(chosen) - set(names)
    if unknown:
        raise SystemExit(f"bench_pairs.py: no workload {sorted(unknown)} in "
                         f"BENCHMARK.json, which has {names}")
    workloads = [name for name in names if name in chosen]
    runs = []
    for seed in args.seeds:
        for workload in workloads:
            sides = ["parent", "change"]
            if seed % 2 == 0:
                sides.reverse()
            for order, side in enumerate(sides):
                tree = args.parent if side == "parent" else args.change
                run = run_one(tree, workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "order": order, **run})
                print(f"{workload} seed {seed} {side}: "
                      f"exit {run['returncode']}", file=sys.stderr)
    args.out.write_text(json.dumps({
        "command": "python3 tools/bench_pairs.py " + " ".join(args.argv),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "runs": runs,
    }, indent=1) + "\n")
    return 0


def result(run):
    """The final JSON line of a run, or None when the run printed none."""
    for line in reversed(run["lines"]):
        if line.startswith("{"):
            return json.loads(line)
    return None


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def pairs_better(parent, change, metric):
    """Pairs in which the change reads better; ties count for neither."""
    sign = 1 if metric["better"] == "lower" else -1
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent, change, metric):
    """`worse`, `better`, `unresolved` or `ok` for one metric's paired values."""
    mp = statistics.median(parent)
    sign = 1 if metric["better"] == "lower" else -1
    gain = sign * (mp - statistics.median(change))
    if -gain > metric["bound"] * abs(mp):
        return "worse"
    q1, q3 = quartiles(parent)
    if gain > q3 - q1 and pairs_better(parent, change, metric) >= BETTER_PAIRS:
        return "better"
    return "unresolved" if q3 - q1 > metric["bound"] * abs(mp) else "ok"


def workload_pairs(bench, workload):
    """seed -> {side: final result line, or None} of one workload's runs."""
    pairs = {}
    for run in bench["runs"]:
        if run["workload"] == workload:
            pairs.setdefault(run["seed"], {})[run["side"]] = result(run)
    return pairs


def paired_values(pairs, name):
    """(parent values, change values) of one metric, from the pairs whose
    both sides report it."""
    values = [(p["parent"]["metrics"][name]["value"],
               p["change"]["metrics"][name]["value"])
              for p in pairs.values()
              if p.get("parent") and p.get("change")
              and name in p["parent"]["metrics"]
              and name in p["change"]["metrics"]]
    return tuple(zip(*values)) or ((), ())


def summary_rows(bench, spec):
    """One row per workload and end-to-end metric, as Markdown cells."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        pairs = workload_pairs(bench, workload)
        failed = [sum(r[side]["failed"] if r.get(side) else 1
                      for r in pairs.values()) for side in ("parent", "change")]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            parent, change = paired_values(pairs, name)
            if not parent:
                continue
            better = pairs_better(parent, change, metric)
            q1, q3 = quartiles(parent)
            mp, mc = statistics.median(parent), statistics.median(change)
            rows.append([workload, f"{name} ({metric['unit']})", f"{mp:.4g}",
                         f"{q3 - q1:.2g}", f"{mc:.4g}", f"{mc / mp - 1:+.1%}",
                         f"{better}/{len(parent)}", f"{failed[0]}/{failed[1]}",
                         verdict(parent, change, metric)])
    return rows


def chain_rows(benches, spec):
    """One row per workload and end-to-end metric: the files that report
    it, and the product of their change/parent median ratios."""
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        per_file = [workload_pairs(bench, workload) for bench in benches]
        for metric in spec["end_to_end"]:
            product, files = 1.0, 0
            for pairs in per_file:
                parent, change = paired_values(pairs, metric["name"])
                if parent:
                    product *= (statistics.median(change)
                                / statistics.median(parent))
                    files += 1
            if files:
                rows.append([workload, f"{metric['name']} ({metric['unit']})",
                             f"{files}/{len(benches)}", f"{product:.3g}",
                             f"{product - 1:+.1%}"])
    return rows


def cmd_summary(args):
    bench = json.loads(args.bench.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"{len(bench['seeds'])} pairs per workload, {bench['seconds']} s "
          f"runs, untraced; `{bench['command']}`\n")
    print("| workload | metric | parent median | parent IQR | change median "
          "| change | pairs better | failed (parent/change) | verdict |")
    print("|---|---|---|---|---|---|---|---|---|")
    for row in summary_rows(bench, spec):
        print("| " + " | ".join(row) + " |")
    return 0


def cmd_chain(args):
    benches = [json.loads(path.read_text()) for path in args.benches]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("Product of the change/parent median ratios within each of "
          + ", ".join(path.name for path in args.benches) + "\n")
    print("| workload | metric | files | product of ratios | change |")
    print("|---|---|---|---|---|")
    for row in chain_rows(benches, spec):
        print("| " + " | ".join(row) + " |")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--parent", type=Path, required=True)
    run.add_argument("--change", type=Path, required=True)
    run.add_argument("--seeds", type=seed_range, default="1-10")
    run.add_argument("--seconds", type=float, default=25.0)
    run.add_argument("--out", type=Path, required=True)
    run.add_argument("--workloads", type=lambda text: text.split(","),
                     help="comma-separated workload names; all by default")
    summary = sub.add_parser("summary")
    summary.add_argument("bench", type=Path)
    chain = sub.add_parser("chain")
    chain.add_argument("benches", type=Path, nargs="+")
    args = parser.parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else argv
    return {"run": cmd_run, "summary": cmd_summary,
            "chain": cmd_chain}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
