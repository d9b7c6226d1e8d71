"""Tests of the benchmark itself, each on a shortened pass of the workloads.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(workload, trace):
    out = io.StringIO()
    result = run.run(workload, seed=7, seconds=0, trace=trace, quick=True, out=out)
    lines = out.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}") for line in lines)
    assert any(line.startswith("fail_ratio ") for line in lines)
    headline = {"paper": "wall_s", "montecarlo": "games_per_s"}.get(workload)
    if headline and not trace:
        assert any(line.startswith(f"{headline} ") for line in lines)


def test_op_that_raises_is_counted_and_the_pass_goes_on(monkeypatch):
    from showdown import simultaneous as sim

    baseline = workloads.Pass()
    workloads.large_n(baseline, 3, quick=True)

    real = sim.win_probabilities

    def broken(thresholds, advantaged=None):
        if len(thresholds) == 3:
            raise RuntimeError("injected")
        return real(thresholds, advantaged)

    monkeypatch.setattr(sim, "win_probabilities", broken)
    p = workloads.Pass()
    workloads.large_n(p, 3, quick=True)
    assert [name for name, _, _ in p.ops] == [name for name, _, _ in baseline.ops]
    injected = [name for name, _, reason in p.ops if reason == "RuntimeError: injected"]
    assert injected == [name for name, _, _ in p.ops if name.startswith("win_probabilities n3 ")]
    assert len(injected) == workloads.QUICK_PROFILES[3]
    others = [(n, r) for n, _, r in p.ops if n not in injected]
    assert others == [(n, r) for n, _, r in baseline.ops if n not in injected]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_verdicts_and_values(workload):
    first = run.run_pass(workload, 11, "plain", quick=True, timeout=120)
    second = run.run_pass(workload, 11, "plain", quick=True, timeout=120)
    assert run.fingerprint(first) == run.fingerprint(second)
    assert len(first["ref_s"]) == len(first["ops"]) and first["setup_ref_s"] > 0
    if workload == "large_n":
        assert first["facts"]["closure_err_max.n30"] == second["facts"]["closure_err_max.n30"]
    if workload == "montecarlo":
        counts = {k: v for k, v in first["facts"].items() if k.startswith("win_counts.")}
        assert len(counts) == len(workloads.CONFIGS)
        assert counts == {k: second["facts"][k] for k in counts}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _record(*ops):
    return {"ops": [[name, 0.1, reason] for name, reason in ops], "facts": {}}


def test_only_the_seed_failures_leave_a_run_correct():
    table_ok = _record(("table 5", None))
    assert run.verdict("paper", [table_ok, table_ok]) == (True, [])
    table_off = _record(("table 5", "3 entries beyond one ulp"))
    correct, problems = run.verdict("paper", [table_off, table_off])
    assert not correct and "table 5" in problems[0]
    refused = _record(("win_matrix n30", "ValueError: capped"), ("win_matrix n10", None))
    assert run.verdict("large_n", [refused, refused]) == (True, [])
    fixed = _record(("win_matrix n30", None), ("win_matrix n10", None))
    assert run.verdict("large_n", [fixed]) == (True, [])
    assert not run.verdict("large_n", [refused, fixed])[0]  # verdicts differ between passes
    assert len(workloads.EXPECTED_FAILURES["large_n"]) == 18


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(range(1000))[1] == 90
    value, q = run.tail_percentile(range(50))
    assert 50 < q < 90 and sum(v > value for v in range(50)) >= 10
    assert run.tail_percentile([1.0, 2.0, 3.0, 4.0]) == (2.5, 50)


def test_host_clock_rescales_by_the_kernel_speed_around_a_call():
    ref = hostclock.REFERENCE_KERNEL_S
    clock = hostclock.HostClock()
    clock.samples = [(0.0, 2 * ref), (0.015, ref), (5.0, ref / 2)]
    assert clock.scale(0.0, 0.01) == pytest.approx((0.5 + 1.0) / 2)  # mean of ref / K
    assert clock.scale(4.99, 5.0) == pytest.approx(2.0)
    assert clock.scale(2.0, 2.0) == pytest.approx(1.0)  # no run within a period: the nearest
