"""hdtomo benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ directory, never from an installed copy.  One process
runs passes one after another, each in a fresh worker process
(perfbench/worker.py), until less than half of the next pass would fit
in --seconds.  Before the passes it starts the worker several times for
set-up only, so setup_s is a median over repeats.

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
runs one untraced pass, then traced passes, and reports the per-layer
metrics and the tracing overhead (traced minus untraced e2e_s).

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Full records
(every pass, machine facts, spans) go to perfbench/out/.  Workloads, seeds
and findings are described in perfbench/NOTES.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from worker import ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

SETUP_PROBES = 5
HARD_LIMIT_S = 170.0  # the whole run ends well inside 180 s
# the BLAS/OpenMP caps `hdtomo --threads` sets, applied to every worker
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def machine_facts(threads):
    facts = {"nproc": len(os.sched_getaffinity(0)), "thread_cap": threads,
             "python": platform.python_version()}
    import numpy
    import scipy

    facts["numpy"] = numpy.__version__
    facts["scipy"] = scipy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    facts["llc"] = llc.read_text().strip() if llc.exists() else "unknown"
    return facts


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def spawn(args, mode, env, deadline, trace_out=None):
    """Run one worker to completion; return its JSON record and wall time,
    or (None, wall) when it failed, printed no record, or ran out of time."""
    work = tempfile.mkdtemp(prefix="pass-", dir=OUT)
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--t0", repr(t0),
           "--work-dir", work]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its CLI children
        out, err = proc.communicate()
        err += f"\nworker killed after {time.monotonic() - t0:.1f} s"
    wall = time.monotonic() - t0
    shutil.rmtree(work, ignore_errors=True)
    if err.strip():
        with open(OUT / f"{args.workload}-seed{args.seed}-stderr.log", "a") as fh:
            fh.write(f"--- {mode}\n{err}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall
    return json.loads(lines[-1]), wall


def summarize(values):
    """Median, plus the highest percentile with at least ten samples beyond
    it when there are enough samples, and the sample count."""
    s = {"median": statistics.median(values), "n": len(values)}
    for p in (99.9, 99, 95, 90, 75):
        if len(values) * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            s[f"p{p:g}"] = cut[round(p * 10) - 1]
            break
    return s


def main():
    ap = argparse.ArgumentParser(description="hdtomo benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    if not (SRC / "hdtomo" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = kind.seed
    OUT.mkdir(exist_ok=True)
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, **{v: str(threads) for v in THREAD_VARS})
    budget = start + args.seconds
    hard = start + HARD_LIMIT_S

    setups = []
    for _ in range(SETUP_PROBES):
        rec, _ = spawn(args, "setup", env, hard)
        if rec is None:
            print("error: the workload could not be set up; see perfbench/out/",
                  file=sys.stderr)
            return 1
        setups.append(rec["setup_s"])

    # at least two untraced passes, or one untraced and one traced; then more
    # of the last kind while at least half of the next one fits in the budget
    first = ["pass", "traced"] if args.trace else ["pass", "pass"]
    modes = sorted(set(first))
    passes, walls = [], {"pass": [], "traced": []}
    while True:
        mode = first[min(len(passes), 1)]
        if len(passes) >= 2 and time.monotonic() + 0.5 * max(walls[mode]) > budget:
            break
        trace_out = OUT / f"spans-{args.workload}-seed{args.seed}-{len(passes)}.json"
        rec, wall = spawn(args, mode, env, hard, trace_out if mode == "traced" else None)
        walls[mode].append(wall)
        passes.append((mode, rec))
        if rec is None and time.monotonic() > hard - 1:
            break

    ok = {m: [r for mode, r in passes if mode == m and r and r.get("ok")] for m in modes}
    failed = sum(1 for _, r in passes if not (r and r.get("ok")))
    for r in ok["pass"]:
        setups.append(r["setup_s"])
    if not ok["pass"] or (args.trace and not ok["traced"]):
        print("error: no pass completed its checks; see perfbench/out/", file=sys.stderr)
        return 1

    untraced = {
        "e2e_s": [r["e2e_s"] for r in ok["pass"]],
        "reconstruct_s": [r["reconstruct_s"] for r in ok["pass"]],
        "samples_per_s": [r["N"] / r["reconstruct_s"] for r in ok["pass"]],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok["pass"]],
        "setup_s": setups,
    }
    if args.trace:
        values = {k: [r["layers"][k] for r in ok["traced"]] for k in ok["traced"][0]["layers"]}
        values["trace.overhead_s"] = [statistics.median(values["trace.e2e_s"])
                                      - statistics.median(untraced["e2e_s"])]
    else:
        values = untraced
    units = declared_units(args.trace)
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    summary = {k: summarize(values[k]) for k in units}

    facts = machine_facts(threads)
    result = {
        "correct": failed == 0, "attempted": len(passes), "failed": failed,
        "metrics": {k: {"value": s["median"], "unit": units[k]} for k, s in summary.items()},
    }
    report = {"workload": args.workload, "seed": args.seed,
              "default_seed": kind.seed, "holdout_seed": kind.holdout_seed,
              "seconds": args.seconds, "trace": args.trace, "machine": facts,
              "error_rate": failed / len(passes), "summary": summary,
              "passes": [{"mode": m, **(r or {"ok": False})} for m, r in passes],
              "result": result}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} "
          f"(default {kind.seed}, held out {kind.holdout_seed}); machine "
          + ", ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"passes {len(passes)}, failed {failed}, error_rate {failed / len(passes):.3g}; "
          f"setup probes {SETUP_PROBES}; records in {path.relative_to(ROOT)}")
    for k, s in summary.items():
        extra = "".join(f", {q} {v:.6g}" for q, v in s.items() if q.startswith("p"))
        print(f"  {k}: median {s['median']:.6g} {result['metrics'][k]['unit']}"
              f" (n={s['n']}{extra})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
