"""tools/bench_pairs.py: the workloads `run` runs, and the verdict of each
metric against its bound."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "time_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "noisy_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    ],
}


def run(seed, side, failed=0, **metrics):
    line = {"failed": failed,
            "metrics": {k: {"value": v} for k, v in metrics.items()}}
    return {"workload": "w", "seed": seed, "side": side,
            "lines": ["warming up", json.dumps(line)]}


def bench(parent, change):
    """Synthetic BENCH dict: parent[i] and change[i] are seed i+1's metrics."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), 1):
        runs += [run(seed, "parent", **p), run(seed, "change", **c)]
    return {"seeds": list(range(1, len(parent) + 1)), "seconds": 1.0,
            "command": "test", "runs": runs}


def verdicts(parent, change):
    return {row[1].split()[0]: row[-1]
            for row in bench_pairs.summary_rows(bench(parent, change), SPEC)}


class TestVerdict:
    PARENT = [{"time_s": 1.0 + 0.01 * i, "noisy_s": 1.0 + 0.3 * i, "rate": 10.0 + i}
              for i in range(4)]

    def test_within_bound_is_ok(self):
        change = [{"time_s": 1.2, "noisy_s": 1.3, "rate": 9.0}] * 4
        got = verdicts(self.PARENT, change)
        assert got == {"time_s": "ok", "noisy_s": "unresolved", "rate": "ok"}

    def test_beyond_bound_is_worse_in_either_direction(self):
        change = [{"time_s": 1.4, "noisy_s": 2.0, "rate": 7.0}] * 4
        got = verdicts(self.PARENT, change)
        assert got == {"time_s": "worse", "noisy_s": "worse", "rate": "worse"}

    def test_better_beyond_bound_is_ok(self):
        change = [{"time_s": 0.5, "noisy_s": 1.0, "rate": 20.0}] * 4
        assert verdicts(self.PARENT, change)["rate"] == "ok"
        assert verdicts(self.PARENT, change)["time_s"] == "ok"

    @pytest.mark.parametrize("better,change,expected", [
        ("lower", [1.26] * 3, "worse"),
        ("lower", [1.24] * 3, "ok"),
        ("higher", [0.74] * 3, "worse"),
        ("higher", [0.76] * 3, "ok"),
    ])
    def test_bound_is_relative_to_parent_median(self, better, change, expected):
        metric = {"better": better, "bound": 0.25}
        assert bench_pairs.verdict([1.0, 1.0, 1.0], change, metric) == expected


class TestBetter:
    PARENT = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
    LOWER = {"better": "lower", "bound": 0.25}

    def test_beyond_iqr_in_eight_pairs_is_better(self):
        change = [0.9] * 8 + [1.5, 1.5]
        assert bench_pairs.pairs_better(self.PARENT, change, self.LOWER) == 8
        assert bench_pairs.verdict(self.PARENT, change, self.LOWER) == "better"

    def test_seven_pairs_are_not_enough(self):
        change = [0.9] * 7 + [1.5] * 3
        assert bench_pairs.verdict(self.PARENT, change, self.LOWER) == "ok"

    def test_gain_within_the_parent_iqr_is_ok(self):
        # parent IQR is 0.015; every pair reads better, by less than that
        change = [p - 0.01 for p in self.PARENT]
        assert bench_pairs.pairs_better(self.PARENT, change, self.LOWER) == 10
        assert bench_pairs.verdict(self.PARENT, change, self.LOWER) == "ok"

    def test_higher_is_better(self):
        metric = {"better": "higher", "bound": 0.25}
        assert bench_pairs.verdict(self.PARENT, [1.1] * 10, metric) == "better"
        assert bench_pairs.verdict(self.PARENT, [0.9] * 10, metric) == "ok"

    def test_summary_row(self):
        parent = [{"time_s": p, "noisy_s": p, "rate": p} for p in self.PARENT]
        change = [{"time_s": 0.8, "noisy_s": 1.0, "rate": 1.2}] * 10
        assert verdicts(parent, change) == {"time_s": "better", "noisy_s": "ok",
                                            "rate": "better"}


class TestChain:
    def test_product_of_within_file_median_ratios(self):
        first = bench([{"time_s": 1.0, "rate": 10.0}] * 3,
                      [{"time_s": 0.5, "rate": 12.0}] * 3)
        # the second file's medians drifted: only its ratios count
        second = bench([{"time_s": 4.0, "noisy_s": 2.0, "rate": 20.0}] * 3,
                       [{"time_s": 3.2, "noisy_s": 3.0, "rate": 20.0}] * 3)
        rows = {row[1].split()[0]: row[2:]
                for row in bench_pairs.chain_rows([first, second], SPEC)}
        assert rows == {"time_s": ["2/2", "0.4", "-60.0%"],
                        "noisy_s": ["1/2", "1.5", "+50.0%"],
                        "rate": ["2/2", "1.2", "+20.0%"]}

    def test_failed_run_is_left_out(self):
        runs = bench([{"time_s": 1.0}] * 2, [{"time_s": 0.5}] * 2)
        runs["runs"][-1]["lines"] = ["crashed"]
        row, = bench_pairs.chain_rows([runs], SPEC)
        assert row[2:] == ["1/1", "0.5", "-50.0%"]


class TestRunWorkloads:
    @pytest.fixture
    def ran(self, monkeypatch):
        calls = []

        def run_one(tree, workload, seed, seconds):
            calls.append((workload, seed, str(tree)))
            return {"returncode": 0, "lines": [], "stderr_tail": []}

        monkeypatch.setattr(bench_pairs, "run_one", run_one)
        return calls

    def run(self, tmp_path, *extra):
        out = tmp_path / "bench.json"
        bench_pairs.main(["run", "--parent", "p", "--change", "c",
                          "--seeds", "1-2", "--seconds", "1", "--out",
                          str(out), *extra])
        return json.loads(out.read_text())

    def test_default_is_every_workload(self, ran, tmp_path):
        names = [w["name"] for w in json.loads(
            (TOOL.parent.parent / "BENCHMARK.json").read_text())["workloads"]]
        self.run(tmp_path)
        assert [w for w, seed, tree in ran if seed == 1 and tree == "p"] == names

    def test_named_workloads_only(self, ran, tmp_path):
        bench = self.run(tmp_path, "--workloads", "train-toy,tts-b1")
        # in BENCHMARK.json's order, both sides, every seed
        assert ran == [("tts-b1", 1, "p"), ("tts-b1", 1, "c"),
                       ("train-toy", 1, "p"), ("train-toy", 1, "c"),
                       ("tts-b1", 2, "c"), ("tts-b1", 2, "p"),
                       ("train-toy", 2, "c"), ("train-toy", 2, "p")]
        assert "--workloads train-toy,tts-b1" in bench["command"]

    def test_unknown_workload_is_refused(self, ran, tmp_path):
        with pytest.raises(SystemExit, match="tts-b2"):
            self.run(tmp_path, "--workloads", "tts-b1,tts-b2")
        assert ran == []
