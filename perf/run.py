#!/usr/bin/env python3
"""The libpvar benchmark: every end-to-end and per-layer number, one command.

    python3 perf/run.py                      all workloads once, seed 0
    python3 perf/run.py --trace              ... plus one traced run each
    python3 perf/run.py --sets 2 --seeds 10  spread per set, drift between sets
    python3 perf/run.py --workload W --seed S --seconds T --trace 0|1
                                             one run; the last line of
                                             stdout is the JSON result

Builds build-perf/ from perf/CMakeLists.txt (incrementally), runs each
workload in its own pvar_perf process, checks every output, prints every
metric with its unit, sample count, median, quartiles and the highest
percentile with at least ten samples beyond it, and writes JSON under
build-perf/results/. BENCHMARK.json at the repository root names the
workloads and which metrics are end-to-end (with their regression
bounds) or per-layer. See perf/README.md.
"""

import argparse
import functools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERF = ROOT / "perf"
BUILD = ROOT / "build-perf"
RESULTS = BUILD / "results"
GOLDEN = ROOT / "tests" / "data" / "full_study_fast_iter1.json"

# A healthy run takes under 30 s; a hung one is killed after this.
RUN_TIMEOUT_S = 170
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


def fail(message):
    print(f"perf/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Configure once, then build incrementally; quiet unless it fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/ is missing: run from a full checkout of the repository")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(PERF), "-B", str(BUILD),
                      *generator, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "pvar_perf",
                  "pvar_served"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build failed: {' '.join(cmd)}")


def run_perf(workload, seed, seconds, trace):
    """One pvar_perf process; returns its JSON document."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{workload}.seed{seed}" + (".traced" if trace else "")
    out = RESULTS / f"{tag}.json"
    out.unlink(missing_ok=True)
    cmd = [str(BUILD / "pvar_perf"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", str(out),
           "--served", str(BUILD / "pvar_served"),
           "--golden", str(GOLDEN), "--scratch", str(BUILD / "scratch")]
    if trace:
        cmd += ["--trace-file", str(RESULTS / f"{workload}.trace.json")]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    if not out.is_file():
        fail(f"{workload}: pvar_perf exited {proc.returncode} "
             "without a result")
    doc = json.loads(out.read_text())
    doc["exit_status"] = proc.returncode
    doc["wall_s"] = time.monotonic() - start
    doc["revision"] = revision()
    out.write_text(json.dumps(doc) + "\n")
    return doc


def percentile(ordered, p):
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=1000,
                                method="inclusive")[round(p * 10) - 1]


def summarize(samples):
    """n, median, quartiles and the tail percentile of one metric."""
    s = sorted(samples)
    n = len(s)
    q1, _, q3 = statistics.quantiles(s, n=4) if n >= 2 else (s[0],) * 3
    tail = None
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            tail = [p, percentile(s, p)]
            break
    return {"n": n, "median": statistics.median(s), "q1": q1, "q3": q3,
            "tail": tail}


def derive(doc):
    """Metrics computed from two others of the same run."""
    m = doc["metrics"]
    if "service.hit_ms" in m and "service.handle_hit_us" in m:
        hit_us = statistics.median(m["service.hit_ms"]["samples"]) * 1e3
        handle_us = statistics.median(m["service.handle_hit_us"]["samples"])
        m["service.transport_us"] = {"unit": "us",
                                     "samples": [hit_us - handle_us]}


@functools.lru_cache(maxsize=None)
def revision():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def host_value(doc, name):
    samples = doc["metrics"].get(f"host.{name}", {}).get("samples", [])
    return samples[0] if samples else None


def fmt(v):
    if v is None:
        return "-"
    if v == 0 or 1e-3 <= abs(v) < 1e6:
        return f"{v:.4g}"
    return f"{v:.3e}"


def print_metrics(doc, names=None):
    """One line per metric: name, unit, n, median, quartiles, tail."""
    metrics = doc["metrics"]
    for name in names if names is not None else sorted(metrics):
        if name not in metrics or name.startswith("host."):
            continue
        s = summarize(metrics[name]["samples"])
        tail = (f"p{s['tail'][0]:g}={fmt(s['tail'][1])}" if s["tail"]
                else "")
        print(f"  {name:34} {metrics[name]['unit']:6} n={s['n']:<5d} "
              f"median={fmt(s['median']):10} q1={fmt(s['q1']):10} "
              f"q3={fmt(s['q3']):10} {tail}")


def print_checks(doc):
    bad = [c for c in doc["checks"] if not c["ok"]]
    status = "ok" if doc["correct"] and doc["exit_status"] == 0 else "FAILED"
    print(f"  checks: {status} ({len(doc['checks']) - len(bad)}/"
          f"{len(doc['checks'])} passed; {doc['failed']} of "
          f"{doc['attempted']} ops failed)")
    for c in bad:
        print(f"    FAILED {c['name']}: {c.get('detail', '')}")


def single_run(args, spec):
    """One run; the result object is the last line of stdout."""
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    doc = run_perf(args.workload, args.seed, args.seconds, args.trace)
    derive(doc)
    print(f"{args.workload} seed={args.seed} traced={int(args.trace)} "
          f"hardware_jobs={fmt(host_value(doc, 'hardware_jobs'))} "
          f"loadavg_1m={fmt(host_value(doc, 'loadavg_1m'))}")
    print_metrics(doc)
    print_checks(doc)
    metrics = {}
    for name in names:
        if name not in doc["metrics"]:
            fail(f"{args.workload}: pvar_perf reported no '{name}'")
        m = doc["metrics"][name]
        if m["unit"] != units[name]:
            fail(f"{name}: unit '{m['unit']}' differs from BENCHMARK.json")
        metrics[name] = {"value": statistics.median(m["samples"]),
                         "unit": m["unit"]}
    correct = bool(doc["correct"]) and doc["exit_status"] == 0
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(doc["attempted"])),
                      "failed": int(doc["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`
    (infinite when `first` is 0 and `second` is not)."""
    if second == first:
        return 0.0
    if not first:
        change = math.copysign(math.inf, second)
    else:
        change = (second - first) / abs(first)
    return change if better == "lower" else -change


def spread(values):
    """Quartile distance over the median of per-run values."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compact(doc, names):
    """One run for the results file: context and the named metrics'
    values (medians of their samples)."""
    return {"seed": doc["seed"],
            "correct": doc["correct"] and doc["exit_status"] == 0,
            "attempted": doc["attempted"], "failed": doc["failed"],
            "wall_s": round(doc["wall_s"], 2),
            "loadavg_1m": host_value(doc, "loadavg_1m"),
            "values": {n: statistics.median(doc["metrics"][n]["samples"])
                       for n in names if n in doc["metrics"]}}


def across_runs(values):
    """Median, quartiles and spread of one metric's per-run values."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0],) * 3)
    return {"n": len(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": spread(values)}


def full_run(args, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [args.seed + j for j in range(args.seeds)]
    sets = []
    all_correct = True
    k = 0
    for _ in range(args.sets):
        runs = {w: [] for w in workloads}
        for seed in seeds:
            # Alternate the workload order so no workload always runs
            # right after the same neighbour.
            for w in workloads if k % 2 == 0 else workloads[::-1]:
                doc = run_perf(w, seed, args.seconds, False)
                all_correct &= doc["correct"] and doc["exit_status"] == 0
                runs[w].append(doc)
            k += 1
        sets.append(runs)

    traced = {}
    if args.trace:
        for w in workloads:
            traced[w] = run_perf(w, args.seed, args.seconds, True)
            derive(traced[w])
            all_correct &= traced[w]["correct"] and \
                traced[w]["exit_status"] == 0

    e2e = spec["end_to_end"]
    e2e_names = [m["name"] for m in e2e]
    layer_names = [m["name"] for m in spec["per_layer"]]
    single = args.sets == 1 and len(seeds) == 1
    summary_sets = [{w: {"runs": [compact(r, e2e_names) for r in runs[w]]}
                     for w in workloads} for runs in sets]
    for w in workloads:
        print(f"\n== {w}")
        if single:
            print_metrics(sets[0][w][0])
            print_checks(sets[0][w][0])
        for m in e2e:
            medians = []
            cells = []
            for s in summary_sets:
                agg = across_runs([r["values"][m["name"]]
                                   for r in s[w]["runs"]])
                s[w].setdefault("summary", {})[m["name"]] = agg
                medians.append(agg["median"])
                cells.append(f"{fmt(agg['median'])} [{fmt(agg['q1'])}, "
                             f"{fmt(agg['q3'])}]" +
                             (f" spread {agg['spread']:.3f}"
                              if agg["spread"] is not None else ""))
            if single:
                continue
            drift = max(worse_by(medians[0], x, m["better"])
                        for x in medians[1:]) if len(medians) > 1 else None
            flag = " OVER" if drift is not None and drift > m["bound"] else ""
            print(f"  {m['name']:18} {m['unit']:5} n={len(seeds)} " +
                  " | ".join(cells) +
                  (f" | worse by {drift:+.3f} (bound {m['bound']}){flag}"
                   if drift is not None else ""))
        if not single:
            bad = [r for s in summary_sets for r in s[w]["runs"]
                   if not r["correct"]]
            print(f"  checks: {'ok' if not bad else f'{len(bad)} runs FAILED'}")

    for w, doc in traced.items():
        print(f"\n== {w} traced")
        print_metrics(doc, layer_names)
        print("  -- detail")
        print_metrics(doc, [n for n in sorted(doc["metrics"])
                            if n not in layer_names])
        print_checks(doc)
        print(f"  trace: {RESULTS / (w + '.trace.json')}")

    stamp = time.strftime("%Y%m%d-%H%M%S")
    summary = {
        "revision": revision(),
        "hardware_jobs": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "seconds": args.seconds,
        "seeds": seeds,
        "units": {m["name"]: m["unit"]
                  for m in spec["end_to_end"] + spec["per_layer"]},
        "sets": summary_sets,
        "traced": {w: compact(d, layer_names) for w, d in traced.items()},
    }
    path = RESULTS / f"run-{stamp}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nresults: {path}")
    return 0 if all_correct else 1


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload",
                   help="run one workload; the result is the last line")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1))
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--seeds", type=int, default=1,
                   help="runs per set, seeds S, S+1, ...")
    args = p.parse_args()
    if args.workload and args.workload not in [w["name"]
                                               for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if args.seed < 0 or args.sets < 1 or args.seeds < 1:
        fail("--seed must be >= 0, --sets and --seeds >= 1")
    build()
    if args.workload:
        return single_run(args, spec)
    return full_run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
