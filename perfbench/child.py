"""One pass of a workload in a fresh, single-threaded Python process.

    python3 perfbench/child.py WORKLOAD SEED MODE [--quick]

MODE is `plain` (no instrumentation; timings also rescaled to the reference
host speed by hostclock.py), `timed` (per-call timers on a few coarse
functions) or `traced` (spans at every public boundary).  Importing the
package and its CLI is timed as set-up; every solver cache starts cold.
Prints the pass record as one JSON line on stdout.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    quick = "--quick" in argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    import hostclock  # stdlib only: numpy is first imported by showdown

    clock = hostclock.HostClock() if mode == "plain" else None
    if clock:
        clock.start()
    t0 = time.perf_counter()
    import showdown
    import showdown.cli  # noqa: F401  -- the entry point users start cold

    t1 = time.perf_counter()
    setup_s = t1 - t0 - (clock.spent if clock else 0.0)
    if clock:
        clock.ready = True  # numpy is imported: the kernel may run
    if Path(showdown.__file__).resolve().parent != ROOT / "src" / "showdown":
        print(f"showdown was imported from {showdown.__file__}, not this checkout", file=sys.stderr)
        return 2

    import json
    import resource

    import instrument
    import workloads

    recorder = {"plain": None, "timed": instrument.Timers, "traced": instrument.Tracer}[mode]
    if recorder is not None:
        recorder = recorder()
        recorder.install()
    p = workloads.Pass(tracer=recorder if mode == "traced" else None, clock=clock)
    workloads.WORKLOADS[workload](p, seed, quick)
    if clock:
        clock.stop()
    record = {
        "mode": mode,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": p.ops,
        "facts": p.facts,
    }
    if clock:  # timings rescaled to the reference host speed (hostclock.py)
        # Kernel runs start once numpy is in, so the import is rescaled by
        # the speed measured in the 0.1 s after it.
        record["setup_ref_s"] = setup_s * clock.scale(t0, t1 + 0.1)
        record["ref_s"] = [s * clock.scale(a, b) for (_, s, _), (a, b) in zip(p.ops, p.windows)]
        record["host_kernel_s"] = [k for _, k in clock.samples]
    if recorder is not None:
        record[mode] = recorder.summary()
    if mode == "traced":
        recorder.write(ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
