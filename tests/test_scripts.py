import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from etensor.golden import W_D_SUP_SQUARED

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _script("bench_pairs")
ghz_basis_search = _script("ghz_basis_search")
w_family_scan = _script("w_family_scan")
w_zero_starts = _script("w_zero_starts")

METRICS = [{"name": "throughput_ops_s", "unit": "1/s", "better": "higher"},
           {"name": "latency_p50_ms", "unit": "ms", "better": "lower"}]


def _runs(workload, throughputs, first_seed=1, failed=0):
    """Synthetic ``--trace 0`` results, one per seed from ``first_seed``."""
    return {(workload, seed): {
        "meta": {"seconds": 50.0}, "failed": failed,
        "metrics": {"throughput_ops_s": {"value": value},
                    "latency_p50_ms": {"value": 1000 / value}}}
        for seed, value in enumerate(throughputs, first_seed)}


class TestBenchPairsSummary:
    # seed 2 is a tie on both metrics, and counts as a win for neither side
    PARENT = _runs("w", [100, 110, 120, 130, 140])
    CHANGE = {**_runs("w", [120, 110, 130, 150, 130]),
              **_runs("change only", [1, 2])}

    def test_pairs_without_a_control(self):
        out = bench_pairs.summarize(self.PARENT, self.CHANGE, METRICS)
        assert list(out) == ["w"]
        entry = out["w"]
        assert entry["seeds"] == [1, 2, 3, 4, 5] and entry["seconds"] == 50.0
        assert entry["failed"] == {"parent": 0, "change": 0}
        throughput = entry["metrics"]["throughput_ops_s"]
        assert throughput["parent"] == {"median": 120, "q1": 110, "q3": 130}
        assert throughput["change"] == {"median": 130, "q1": 120, "q3": 130}
        assert (throughput["wins"], throughput["pairs"]) == (3, 5)
        latency = entry["metrics"]["latency_p50_ms"]
        assert (latency["wins"], latency["pairs"]) == (3, 5)
        assert latency["better"] == "lower" and latency["unit"] == "ms"
        assert "control" not in throughput and "control" not in latency

    def test_control_on_the_seeds_it_shares(self):
        # the control ran seeds 1-4 and 9; seed 9 has no pair and is left out
        control = {**_runs("w", [100, 112, 119, 130], failed=1),
                   **_runs("w", [500], first_seed=9)}
        out = bench_pairs.summarize(self.PARENT, self.CHANGE, METRICS, control)
        entry = out["w"]
        assert entry["failed"] == {"parent": 0, "change": 0, "control": 4}
        throughput = entry["metrics"]["throughput_ops_s"]
        # seeds 1 and 4 tie, 2 is a win and 3 a loss against the parent
        assert throughput["control"] == pytest.approx(
            {"median": 115.5, "q1": 109, "q3": 121.75, "wins": 1, "pairs": 4})
        assert entry["metrics"]["latency_p50_ms"]["control"]["wins"] == 1
        # the change's side does not move with a control beside it
        without = bench_pairs.summarize(self.PARENT, self.CHANGE, METRICS)["w"]
        for name, metric in entry["metrics"].items():
            assert {k: v for k, v in metric.items() if k != "control"} == \
                without["metrics"][name]


class TestEverySizeScan:
    def test_searches_only_w_d_and_prints_the_law(self, capsys, monkeypatch):
        searched = []
        real = w_family_scan.maximize_component

        def counted(state, selector, *args, **kwargs):
            searched.append((state.structure.num_parties, selector.parties))
            return real(state, selector, *args, **kwargs)

        monkeypatch.setattr(w_family_scan, "maximize_component", counted)
        w_family_scan.every_size_table(4)
        assert searched == [(3, (0, 1, 2)), (4, (0, 1, 2, 3))]
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert [(r[0], r[1], r[3]) for r in rows] == [
            ("3", "2", "law"), ("3", "3", "search"), ("4", "2", "law"),
            ("4", "3", "law"), ("4", "4", "search")]
        for m, d, value, *_ in rows:
            m, d = int(m), int(d)
            if m > d:
                assert value == f"{d / m * W_D_SUP_SQUARED[d]:.8f}"
            else:
                assert abs(float(value) - W_D_SUP_SQUARED[d]) <= 1e-8


class TestZeroStarts:
    def test_no_random_basis_of_w3_is_a_zero(self, capsys):
        # the W_3 full component is bounded away from zero (least 1.1e-2 in
        # 400 bases), so a handful of bases finds none below 1e-6
        w_zero_starts.random_bases(3, 20, np.random.default_rng(0))
        line = capsys.readouterr().out
        assert line.startswith("W_3: 0 of 20 random bases below 1e-06; the least is ")
        assert float(line.split()[-1]) > 1e-2


class TestOutOfRangeArguments:
    """A script refuses an argument outside its stated range before any work."""

    @pytest.mark.parametrize("script, argv", [
        (w_family_scan, ["--max-m", "11"]),
        (w_family_scan, ["--max-m", "2"]),
        (w_family_scan, ["--every-size", "--max-m", "8"]),
        (ghz_basis_search, ["--restarts", "0"]),
        (ghz_basis_search, ["--restarts", "10001"]),
        (ghz_basis_search, ["--seed", "-1"]),
    ])
    def test_usage_error(self, capsys, monkeypatch, script, argv):
        monkeypatch.setattr(sys, "argv", [script.__name__, *argv])
        with pytest.raises(SystemExit) as exit_info:
            script.main()
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err
