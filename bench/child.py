"""One pass of one workload, in a fresh process.

Prints ``ready`` once set-up is done (interpreter start, package import,
input generation, and any set-up the workload needs), then times each op
on its own and writes times, outputs and resource use as JSON.  The
parent measures set-up from spawning this process to reading ``ready``.

    python3 bench/child.py --workload W --seed S --trace 0|1 --work DIR --out FILE
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def peak_rss_kb(usage) -> int:
    """This process's own peak resident set, in KiB.

    ``ru_maxrss`` of a process started by fork and exec also counts the
    parent's resident set at the fork, which here is the benchmark runner's,
    so Linux's ``VmHWM`` (the high-water mark of this process's own memory
    map) is used where it exists.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return usage.ru_maxrss


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--spans", type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import primebound
    from primebound import cli, report, suites  # noqa: F401  (every layer loaded)

    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = probes = None
    if args.trace:
        import layers

        tracer, probes, wrapped = layers.install(primebound)
    ctx = wl.setup(primebound, args.work)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    mark = tracer.mark() if tracer else None
    clock = time.perf_counter_ns
    times, outputs = [], []
    for i, op in enumerate(wl.ops):
        if tracer:
            tracer.op = i
            probes.begin_op()
        error = None
        t0 = clock()
        try:
            raw = wl.run(ctx, i, op)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            error = f"{type(exc).__name__}: {exc}"
        t1 = clock()
        times.append(t1 - t0)
        if error is None:
            try:
                outputs.append(wl.record(ctx, i, op, raw))
            except Exception as exc:
                outputs.append({"error": f"recording output: {type(exc).__name__}: {exc}"})
        else:
            outputs.append({"error": error})

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "times_ns": times,
        "outputs": outputs,
        "maxrss_kb": peak_rss_kb(usage),
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer:
        values, bases = layers.child_metrics(tracer, probes, mark, sum(times))
        result.update(layers=values, bases=bases, wrapped=wrapped)
        if args.spans:
            with args.spans.open("w", encoding="utf-8") as fh:
                for op, key, parent, t0, t1, hot in tracer.spans:
                    fh.write(json.dumps([op, key, parent, t0, t1, hot]) + "\n")
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
