"""Benchmark for primebound: three seeded workloads, each pass in a fresh process.

    python3 bench/run.py                       # every workload, printed with units
    python3 bench/run.py --workload sieve --seed 1 --seconds 20 --trace 0

Each pass is a fresh ``child.py`` process that sets up, prints ``ready``,
and times every op of the workload's fixed, seeded op list.  Passes repeat
until ``--seconds`` have gone by (at least one).  With ``--trace 1`` the
passes alternate between untraced and traced, and the per-layer metrics
come from the traced ones.  Outputs are checked against the oracles in
``oracles.py`` outside every timed region.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with run metadata, goes to
``bench/out/<workload>-seed<seed>-trace<t>.json``; traced runs also leave
their spans next to it.

Seeds: 1 is the default; 2 is held out, and a claimed gain must hold on it too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import stats
import workloads

DEFAULT_SEED = 1
HELDOUT_SEED = 2
DEFAULT_SECONDS = 30
MIN_SETUPS = 7  # set-up is sampled in extra set-up-only processes up to this count
CHILD_TIMEOUT_S = 150

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class PassError(RuntimeError):
    pass


def run_child(workload: str, seed: int, traced: bool, work: Path, k: int,
              setup_only: bool = False, spans: Path | None = None) -> dict:
    """Spawn one pass; returns its result with ``setup_s`` filled in."""
    out = work / f"pass-{k}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work", str(work),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise PassError(f"pass {k} timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or line.strip() != "ready":
        raise PassError(f"pass {k} exited with {proc.returncode}")
    if setup_only:
        return {"setup_s": ready - t0}
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_s"] = ready - t0
    return result


def check_passes(wl, passes: list[dict]) -> list[list[str | None]]:
    """Failure reason (or None) per op per pass.

    The first pass is checked against the oracles; every later pass must
    reproduce its outputs exactly, and then shares its verdict.
    """
    first = passes[0]["outputs"]
    verdicts = [wl.check(wl.expect(), first)]
    for p in passes[1:]:
        verdicts.append([
            reason if out == ref else out.get("error", "output differs from the first pass")
            for reason, out, ref in zip(verdicts[0], p["outputs"], first)
        ])
    return verdicts


def end_to_end(wl, passes: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics over the untraced passes, and run metadata.

    On a shared 2-vCPU virtual machine the CPU was seen to alternate between
    a fast mode and one about 1.5-2x slower, for tens of milliseconds to
    seconds at a time.  An op's best time over the passes (and over its
    copies in a pass, where an input repeats) estimates its cost outside the
    slow mode, so ``solve_s`` and ``op_p50_ms`` use it.  The tail (printed,
    not gated) uses each op's median: the slowest best times belong to ops
    that never met the fast mode.
    """
    n = len(wl.ops)
    keys = [json.dumps(op, sort_keys=True) for op in wl.ops]
    best = [t / 1e6 for t in stats.best_times(
        [[p["times_ns"][i] for p in passes] for i in range(n)], keys)]
    typical = [stats.median(p["times_ns"][i] for p in passes) / 1e6 for i in range(n)]
    values = {
        "setup_s": stats.median(setups),
        "solve_s": sum(best) / 1e3,
        "op_p50_ms": stats.median(best),
        "peak_rss_mb": stats.median(p["maxrss_kb"] for p in passes) / 1024,
    }
    tail = stats.tail(typical)
    notes = {
        "setup_samples": len(setups),
        "passes": len(passes),
        "ops_per_pass": n,
        "op_tail_ms": None if tail is None else {
            "value": tail[0], "percentile": tail[1], "samples": tail[2]},
        "pass_solve_s": [sum(p["times_ns"]) / 1e9 for p in passes],
        "cpu_s_per_pass": [p["cpu_s"] for p in passes],
    }
    return values, notes


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, dict]:
    values = {}
    for name, _, _ in layers.METRICS:
        if name in layers.PARENT_METRICS:
            continue
        values[name] = stats.median(p["layers"][name] for p in traced)
    values["trace.untraced_solve_s"] = stats.median(sum(p["times_ns"]) for p in untraced) / 1e9
    values["trace.overhead_s"] = values["trace.solve_s"] - values["trace.untraced_solve_s"]
    last = traced[-1]
    absent = [f"primes.{k}" for k in layers.STAGES if f"primes.{k}" not in last["wrapped"]]
    return values, {"bases": last["bases"], "absent_stages": absent}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    # Importing here checks which package the passes will load and, where
    # bytecode is cached, compiles it before any set-up is timed.
    import primebound

    src = (ROOT / "src").resolve()
    if src not in Path(primebound.__file__).resolve().parents:
        print(f"error: primebound imported from {primebound.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy

    wl = workloads.WORKLOADS[name](seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    spans = OUT / f"{name}-seed{seed}.spans.jsonl"
    untraced, traced, setups = [], [], []
    try:
        start = time.perf_counter()
        k = 0
        while k == 0 or (trace and not traced) or time.perf_counter() - start < seconds:
            as_traced = trace and len(traced) < len(untraced)
            p = run_child(name, seed, as_traced, work, k, spans=spans if as_traced else None)
            (traced if as_traced else untraced).append(p)
            if not as_traced:
                setups.append(p["setup_s"])
            k += 1
        while len(setups) < MIN_SETUPS:
            setups.append(run_child(name, seed, False, work, k, setup_only=True)["setup_s"])
            k += 1
        passes = untraced + traced
        verdicts = check_passes(wl, passes)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [(k, i, r) for k, v in enumerate(verdicts) for i, r in enumerate(v) if r]
    attempted = sum(len(v) for v in verdicts)
    values, notes = end_to_end(wl, untraced, setups)
    units = dict(END_TO_END)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "params": wl.params(),
        "meta": {
            **notes,
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "fail_ratio": len(failures) / attempted,
        },
        "end_to_end": {n: {"value": values[n], "unit": units[n]} for n in units},
        "failures": [{"pass": k, "op": i, "reason": r} for k, i, r in failures[:20]],
    }
    if trace:
        lv, lnotes = per_layer(traced, untraced)
        metrics = {n: {"value": lv[n], "unit": u} for n, u, _ in layers.METRICS}
        record["per_layer"] = metrics
        record["meta"].update(lnotes)
    else:
        metrics = record["end_to_end"]
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print_report(record, failures, attempted)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def print_report(record: dict, failures, attempted: int) -> None:
    meta = record["meta"]
    print(f"{record['workload']}: seed {record['seed']}, {meta['passes']} untraced pass(es) of "
          f"{meta['ops_per_pass']} ops, {meta['setup_samples']} set-ups, "
          f"{meta['cores']} cores, Python {meta['python']}, numpy {meta['numpy']}")
    print(f"  fail_ratio           {meta['fail_ratio']:.6g} 1  ({len(failures)} of {attempted} ops)")
    for reason in failures[:5]:
        print(f"    pass {reason[0]} op {reason[1]}: {reason[2]}")
    for name, m in record["end_to_end"].items():
        print(f"  {name:<20} {m['value']:.6g} {m['unit']}")
    tail = meta["op_tail_ms"]
    if tail is None:
        print(f"  op_tail_ms           not reported: {meta['ops_per_pass']} ops, a tail needs "
              f"{10 * stats.TAIL_BEYOND}")
    else:
        print(f"  op_tail_ms           {tail['value']:.6g} ms  (p{tail['percentile']:.4g} of "
              f"{tail['samples']} per-op medians; not gated)")
    print(f"  cpu_s per pass       {', '.join(f'{c:.3f}' for c in meta['cpu_s_per_pass'])}")
    for name, m in record.get("per_layer", {}).items():
        base = meta["bases"].get(name)
        extra = f"  (base {base[0]:.6g} / {base[1]:.6g})" if base else ""
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}{extra}")
    for key in meta.get("absent_stages", []):
        print(f"  note: {key} no longer exists; its stage metrics read 0")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, one after another, each in its own process."""
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    print("\nsummary")
    for name, result in rows:
        cells = "" if trace else ", ".join(
            f"{k} {m['value']:.4g} {m['unit']}" for k, m in result["metrics"].items())
        ratio = result["failed"] / result["attempted"]
        print(f"  {name:<11} correct={result['correct']} fail_ratio {ratio:.4g} 1 "
              f"({result['failed']}/{result['attempted']})  {cells}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help="keep starting passes until this long has gone by")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "primebound" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'primebound'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
