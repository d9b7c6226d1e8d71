"""Benchmark of `showdown`: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload paper|large_n|montecarlo \\
        --seed N --seconds S --trace 0|1

Runs cold passes of the workload one after another, each in a fresh
single-threaded Python process (perfbench/child.py), until S seconds have
gone; at least one pass always runs.  Every output is checked against an
oracle, and a failing op is counted, never dropped.  Prints a summary, then
as the last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostclock
import workloads

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = tuple(workloads.WORKLOADS)
DEADLINE_S = 170.0  # the whole run ends within this, passes included
# The child's thread environment: one thread for BLAS/OpenMP, fixed hashing.
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def metadata(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "child_env": CHILD_ENV,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(workload: str, seed: int, mode: str, quick: bool, timeout: float) -> dict:
    """One pass in a fresh child process; its record as a dict."""
    argv = [sys.executable, str(CHILD), workload, str(seed), mode] + (["--quick"] if quick else [])
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env={**os.environ, **CHILD_ENV},
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass of {workload} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} pass of {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def fingerprint(record: dict) -> tuple:
    """What must repeat exactly for one seed: op verdicts and checked values."""
    return tuple((name, reason) for name, _, reason in record["ops"]), json.dumps(record["facts"], sort_keys=True)


def verdict(workload: str, passes: list[dict]) -> tuple[bool, list[str]]:
    """Whether the run's outputs are correct, and why not.

    Correct means that no op outside the seed's failure inventory
    (workloads.EXPECTED_FAILURES) failed its check in any pass, and that
    every pass of the seed gave the same verdicts and checked values."""
    expected = workloads.EXPECTED_FAILURES[workload]
    unexpected = sorted({
        name for r in passes for name, _, reason in r["ops"] if reason and name not in expected
    })
    problems = [f"{name} failed, and did not fail at the seed" for name in unexpected]
    prints = {fingerprint(r) for r in passes}
    if len(prints) > 1:
        problems.append(f"{len(prints)} different verdict sets across passes of one seed")
    return not problems, problems


def median_op_seconds(passes: list[dict], rescaled: bool = True) -> float:
    """Seconds of timed calls in a typical pass: the sum over ops of each
    op's median across passes, rescaled to the reference host speed
    (hostclock.py) unless `rescaled` is false."""
    per_pass = [r["ref_s"] if rescaled else [s for _, s, _ in r["ops"]] for r in passes]
    return sum(statistics.median(v) for v in zip(*per_pass))


def ok_ops(record: dict) -> int:
    return sum(1 for _, _, reason in record["ops"] if reason is None)


def games(record: dict) -> int:
    return sum(v for k, v in record["facts"].items() if k.startswith("games."))


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail_percentile(values, target: int = 90) -> tuple[float, int]:
    """The highest percentile up to `target` with at least ten samples beyond
    it, and which one that is; the median when no percentile above it has ten."""
    values = sorted(values)
    if len(values) < 2:
        return (values[0] if values else 0.0), 50
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for q in range(target, 50, -1):
        if sum(v > cuts[q - 1] for v in values) >= 10:
            return cuts[q - 1], q
    return statistics.median(values), 50


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    """The BENCHMARK.json end-to-end metrics over the passes of one run."""
    return {
        "setup_s": (_median(r["setup_ref_s"] for r in passes), "s"),
        "goodput_per_s": (_median(ok_ops(r) for r in passes) / median_op_seconds(passes), "1/s"),
        "peak_rss_mb": (_median(r["peak_rss_mb"] for r in passes), "MB"),
    }


def workload_headline(workload: str, passes: list[dict]) -> dict[str, tuple[float, str]]:
    """The workload's own figure: paper wall time, simulator games per second,
    at the reference host speed."""
    seconds = median_op_seconds(passes)
    if workload == "paper":
        return {"wall_s": (seconds, "s")}
    if workload == "montecarlo":
        return {"games_per_s": (_median(games(r) for r in passes) / seconds, "games/s")}
    return {}


def host_slowdown(passes: list[dict]) -> float:
    """Median calibration kernel time over the reference: how much slower
    than the reference the host ran during the run."""
    return _median(k for r in passes for k in r["host_kernel_s"]) / hostclock.REFERENCE_KERNEL_S


def per_layer(plain: list[dict], timed: list[dict], traced: list[dict],
              notes: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: per-call timings from the timed passes, self times
    and counts from the traced passes, the trace overhead against the plain
    passes.  A layer the workload never reaches reads 0.  Appends to `notes`
    each p90 that the samples could not support."""
    m: dict[str, tuple[float, str]] = {}

    def self_s(prefix: str) -> float:
        """Self time of the spans named `prefix` or `prefix.*`."""
        return _median(
            sum(v for k, v in r["traced"]["self_s"].items() if k == prefix or k.startswith(prefix + "."))
            for r in traced
        )

    def count(key: str) -> float:
        return traced[0]["traced"]["counts"].get(key, 0)

    def calls(name: str):
        return [c for r in timed for c in r["timed"].get(name, [])]

    def total_s(name: str) -> float:
        return _median(sum(s for s, _ in r["timed"].get(name, [])) for r in timed)

    m["numerics.self_s"] = (self_s("numerics"), "s")
    m["numerics.solve_root.calls"] = (count("numerics.solve_root.calls"), "count")
    m["numerics.solve_root.evals"] = (count("numerics.solve_root.evals"), "count")
    for kernel in ("solve_root_2d", "integrate_adaptive"):
        m[f"numerics.{kernel}.self_s"] = (self_s(f"numerics.{kernel}"), "s")
        m[f"numerics.{kernel}.evals"] = (count(f"numerics.{kernel}.evals"), "count")
    for cls in ("ExpPoly", "PiecewisePoly"):
        m[f"numerics.{cls}.self_s"] = (self_s(f"numerics.{cls}"), "s")
    for fn in ("score.sample_scores", "stopping.optimal_threshold"):
        m[f"{fn}.self_s"] = (self_s(fn), "s")
        m[f"{fn}.calls"] = (count(f"{fn}.calls"), "count")
    m["sequential.theta.self_s"] = (self_s("sequential.theta"), "s")
    for fn in ("sequential.win_matrix", "sequential.coalition_12", "sequential.coalition_13",
               "simultaneous.epsilon_delta"):
        m[f"{fn}.s"] = (total_s(fn), "s")
    wp = calls("simultaneous.win_probabilities")
    br = calls("simultaneous.best_response")
    for n in workloads.LARGE_NS:
        ms = [s * 1e3 for s, k in wp if k == n]
        m[f"simultaneous.win_probabilities.p50_ms.n{n}"] = (_median(ms), "ms")
        p90, q = tail_percentile(ms)
        m[f"simultaneous.win_probabilities.p90_ms.n{n}"] = (p90, "ms")
        if ms and q < 90:
            notes.append(f"simultaneous.win_probabilities.p90_ms.n{n} is p{q}: {len(ms)} calls")
    m["simultaneous.win_probabilities.calls"] = (count("simultaneous.win_probabilities.calls"), "count")
    facts = timed[0]["facts"]
    for n in (30, 60):
        m[f"simultaneous.win_probabilities.closure_err_max.n{n}"] = (facts.get(f"closure_err_max.n{n}", 0.0), "1")
    for n in workloads.LARGE_NS:
        m[f"simultaneous.best_response.p50_ms.n{n}"] = (_median(s * 1e3 for s, k in br if k == n), "ms")
    for config, _, _ in workloads.CONFIGS:
        rates = [
            r["facts"][f"games.{config}"] / seconds
            for r in timed for name, seconds, _ in r["ops"]
            if name == config and f"games.{config}" in r["facts"]
        ]
        m[f"simulator.run.games_per_s.{config}"] = (_median(rates), "games/s")
    m["simulator.run.self_s"] = (self_s("simulator.run"), "s")
    m["cli.self_s"] = (self_s("cli"), "s")
    m["trace.overhead_ratio"] = (
        median_op_seconds(traced, rescaled=False) / median_op_seconds(plain, rescaled=False), "ratio"
    )
    return m


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False, out=sys.stdout) -> dict:
    """Measure one workload; prints the summary and returns the result object."""
    if not (ROOT / "src" / "showdown" / "__init__.py").is_file():
        raise BenchError(f"no showdown sources under {ROOT / 'src'}")
    modes = ("plain", "timed", "traced") if trace else ("plain",)
    passes: list[dict] = []
    t0 = time.perf_counter()
    while len(passes) < len(modes) or time.perf_counter() - t0 < seconds:
        left = DEADLINE_S - (time.perf_counter() - t0)
        if left <= 0:
            raise BenchError(f"no time left for another pass after {len(passes)}")
        passes.append(run_pass(workload, seed, modes[len(passes) % len(modes)], quick, left))
    run_s = time.perf_counter() - t0

    attempted = sum(len(r["ops"]) for r in passes)
    failed = sum(1 for r in passes for _, _, reason in r["ops"] if reason)
    correct, problems = verdict(workload, passes)

    print(f"perfbench workload={workload} seed={seed} trace={int(trace)} "
          f"passes={len(passes)} run_s={run_s:.1f}", file=out)
    print("meta " + json.dumps(metadata(seed)), file=out)
    for problem in problems:
        print(f"INCORRECT: {problem}", file=out)
    notes: list[str] = []
    if trace:
        plain, timed, traced = ([r for r in passes if r["mode"] == mode] for mode in modes)
        metrics = per_layer(plain, timed, traced, notes)
        print(f"spans of the last traced pass: .perfbench/spans-{workload}-seed{seed}.jsonl "
              f"({traced[-1]['traced']['spans']} spans)", file=out)
    else:
        metrics = end_to_end(passes)
        print(f"host_slowdown {host_slowdown(passes):.4g} (calibration kernel, median over the reference)", file=out)
        print(f"measured_op_s {median_op_seconds(passes, rescaled=False):.6g} s (not rescaled)", file=out)
        for name, (value, unit) in workload_headline(workload, passes).items():
            print(f"{name} {value:.6g} {unit} (median call of each op over {len(passes)} passes, "
                  f"at the reference host speed)", file=out)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}", file=out)
    for note in notes:
        print(f"  note: {note}", file=out)
    print(f"fail_ratio {failed / attempted:.4f} ratio ({failed} of {attempted} ops failed)", file=out)
    for name, _, reason in passes[0]["ops"]:
        if reason:
            print(f"  failed: {name}: {reason[:160]}", file=out)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
