#!/usr/bin/env python3
"""The stochlab benchmark: four CLI workloads, each run in fresh processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # summary table
    python3 bench/run.py --smoke                               # tiny sizes, self-test

Run it from anywhere inside a checkout; stochlab is imported from the
checkout's src/ and nothing else (it fails without one).  A run writes the
workload config with the seed into .bench_work/, then starts the stochlab CLI
in a fresh child process (bench/child.py) again and again until S seconds
are used, one process at a time, and reports medians over those children.

Workloads are the committed configs in bench/workloads/ (why each was chosen
is written at the top of each file).  --seed selects the config seed as
N mod 32, because the outputs of every one of those 32 seeds were recorded
at the seed commit in bench/refs/.  Every child is an attempted operation; it
fails if it exits nonzero, if a CSV is missing, extra or differs from the
reference by more than |a - r| <= ATOL + RTOL |r| on any sampled row,
column sum or `key=value` comment value, or if its CSV bytes differ from the
run's first child (the CLI promises byte-identical files per config and seed).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall_s (config
resolved to last CSV closed), path_steps_per_s, peak_rss_mb of the child and
setup_s (process start to config resolved), each the median over children.
The two timings are scaled to the reference machine's speed: each child
also times a fixed numpy kernel (bench/calibrate.py) just before and just
after the CLI run, and its timings are multiplied by the kernel's reference
time over its time in that child (see scaled()).  This removes most of the
second-to-second speed changes of a shared VM, which raw medians over a
30 s run do not; the raw medians are printed too.
--trace 1 alternates untraced and traced children (spans from bench/tracer.py)
and adds one tracemalloc child; it reports the per-layer metrics, each the
median over traced children, and trace.overhead_s, the traced minus the
untraced median of the scaled wall_s.  bench/predictions.json maps every
per-layer metric to the end-to-end metric and workloads it should move.

The last stdout line is the JSON result; the lines before it give each metric
with its unit, quartiles and sample count, the error rate and machine facts.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

REF_SEEDS = 32
# Loose enough for the 1e-14 per-step rounding shifts a reordered kernel
# makes, summed over the longest workload's 1e4 steps; tight enough that a
# wrong scheme (>1e-4) or a wrong seed (order 1) fails.
RTOL, ATOL = 1e-8, 1e-10
CHILD_TIMEOUT_S = 120

# name -> (CLI subcommand, --threads)
WORKLOADS = {
    "single_path": ("simulate", 1),
    "ensemble_wide": ("simulate", 2),
    "stability_tall": ("stability", 1),
    "convergence_refine": ("convergence", 1),
}
# Seconds the calibration kernel (bench/calibrate.py) takes on the reference
# machine, a 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy 2.4.6, by
# thread count: medians over about 1300 benchmark children.  Any fixed values
# would do; these make the scaled timings read as seconds on that machine.
REFERENCE_S = {1: 0.1214, 2: 0.2652}

# smoke sizes: top-level config keys, and keys set in every analysis entry
SMOKE = {
    "single_path": ({"T": 0.02}, {}),
    "ensemble_wide": ({"n_paths": 64, "T": 0.01}, {}),
    "stability_tall": ({"n_paths": 20, "T": 0.1}, {}),
    "convergence_refine": ({}, {"n_paths": 20, "levels": 3, "oracle_gap": 1}),
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _env():
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


# -- workload inputs ---------------------------------------------------------

def make_config(name, seed, smoke=False):
    """The committed workload config with `seed` written in."""
    cfg = yaml.safe_load((BENCH / "workloads" / f"{name}.yaml").read_text())
    cfg["seed"] = int(seed)
    if smoke:
        top, per_analysis = SMOKE[name]
        cfg.update(top)
        for entry in cfg.get("analyses", []):
            if entry["kind"] == "convergence":
                entry.update(per_analysis)
    return cfg


def path_steps(name, cfg):
    """n_paths x n_steps summed over every integration the subcommand runs."""
    task = WORKLOADS[name][0]

    def steps(T, h):
        return math.ceil(T / h - 1e-9)

    if task == "simulate":
        return cfg.get("n_paths", 1) * steps(cfg["T"], cfg["h"])
    if task == "stability":
        return len(cfg["analyses"]) * cfg["n_paths"] * steps(cfg["T"], cfg["h"])
    total = 0
    for a in cfg["analyses"]:
        n0 = steps(a["T"], a["h0"])
        levels = [n0 * 2**k for k in range(a["levels"])]
        if a["oracle"] == "finest_refinement":
            levels.append(n0 * 2 ** (a["levels"] + a["oracle_gap"] - 1))
        total += a["n_paths"] * sum(levels)
    return total


# -- output checking ---------------------------------------------------------

def _value(tok):
    try:
        return float(tok)
    except ValueError:
        return tok


def summarize_csv(path, n_sample=51):
    """Header, row count, sampled rows, column sums and `key=value` comments."""
    meta, header, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                if not line.startswith("# config:"):
                    for tok in line[1:].split():
                        key, eq, val = tok.partition("=")
                        if eq:
                            meta[key] = _value(val)
            elif header is None:
                header = line
            else:
                rows.append([_value(t) for t in line.split(",")])
    n = len(rows)
    picks = sorted({round(i * (n - 1) / (n_sample - 1)) for i in range(n_sample)}) if n else []
    numeric = [all(isinstance(r[j], float) for r in rows) for j in range(len(rows[0]))] if n else []
    cols = list(zip(*rows))
    return {
        "header": header,
        "n_rows": n,
        "rows": {str(i): rows[i] for i in picks},
        "sums": [math.fsum(c) if ok else None for c, ok in zip(cols, numeric)],
        "abs_sums": [math.fsum(map(abs, c)) if ok else None for c, ok in zip(cols, numeric)],
        "meta": meta,
    }


def summarize(out_dir):
    return {p.name: summarize_csv(p) for p in sorted(Path(out_dir).glob("*.csv"))}


def _close(a, r):
    if isinstance(r, float) and isinstance(a, float):
        return abs(a - r) <= ATOL + RTOL * abs(r)
    return a == r


def compare(actual, ref):
    """Problems found comparing two summaries; empty when they agree."""
    problems = []
    if sorted(actual) != sorted(ref):
        return [f"CSV files {sorted(actual)}, expected {sorted(ref)}"]
    for name, exp in ref.items():
        got = actual[name]
        if got["header"] != exp["header"] or got["n_rows"] != exp["n_rows"]:
            problems.append(f"{name}: header/rows {got['header']!r}/{got['n_rows']}, "
                            f"expected {exp['header']!r}/{exp['n_rows']}")
            continue
        for i, row in exp["rows"].items():
            bad = [j for j, (a, r) in enumerate(zip(got["rows"][i], row)) if not _close(a, r)]
            if bad or len(got["rows"][i]) != len(row):
                problems.append(f"{name}: row {i} differs in columns {bad}")
        for j, (s, r, mag) in enumerate(zip(got["sums"], exp["sums"], exp["abs_sums"])):
            if r is not None and (s is None or abs(s - r) > ATOL * exp["n_rows"] + RTOL * mag):
                problems.append(f"{name}: column {j} sums to {s!r}, expected {r!r}")
        for key, r in exp["meta"].items():
            if not _close(got["meta"].get(key), r):
                problems.append(f"{name}: {key}={got['meta'].get(key)!r}, expected {r!r}")
    return problems


def _digest(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).glob("*.csv"))}


def load_refs(name, cfg_seed):
    refs = json.loads((BENCH / "refs" / f"{name}.json").read_text())
    return refs["seeds"][str(cfg_seed)]


# -- children ------------------------------------------------------------------

def run_child(name, cfg_path, out_dir, mode="plain", spans_path=""):
    """Run one CLI invocation in a fresh process; returns its result dict
    (with "error" set when it failed to produce one)."""
    task, threads = WORKLOADS[name]
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [sys.executable, str(BENCH / "child.py"), str(ROOT), "", mode, str(spans_path),
            "--", task, "--config", str(cfg_path), "--out", str(out_dir),
            "--threads", str(threads)]
    argv[3] = repr(_now())
    try:
        proc = subprocess.run(argv, env=_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s", "mode": mode}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        result = {}
    result["mode"] = mode
    if proc.returncode != 0 or "wall_s" not in result:
        result["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return result


def warm_imports():
    """Import the package once so that bytecode and file caches are warm, as
    they are for a researcher who runs the CLI repeatedly."""
    subprocess.run([sys.executable, "-c", "import stochlab.cli"], env=_env(),
                   capture_output=True, timeout=CHILD_TIMEOUT_S)


def measure(name, seed, seconds, trace, smoke=False):
    """Children until `seconds` are used; returns the run record."""
    cfg = make_config(name, seed % REF_SEEDS, smoke)
    wdir = WORK / name
    wdir.mkdir(parents=True, exist_ok=True)
    cfg_path = wdir / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    ref = None if smoke else load_refs(name, cfg["seed"])
    modes = ["plain", "trace"] if trace else ["plain"]
    min_rounds = 1 if smoke else (2 if trace else 3)

    warm_imports()
    children, first_digest = [], None
    t0, rounds = _now(), 0
    while True:
        for mode in modes:
            res = run_child(name, cfg_path, wdir / "out", mode, wdir / "spans.jsonl")
            children.append(_checked(res, wdir / "out", ref, first_digest))
            first_digest = first_digest or res.get("digest")
        rounds += 1
        elapsed = _now() - t0
        if rounds >= min_rounds and elapsed * (rounds + 1) / rounds > seconds:
            break
    if trace:
        res = run_child(name, cfg_path, wdir / "out", "memory")
        children.append(_checked(res, wdir / "out", ref, first_digest))
    shutil.rmtree(wdir / "out", ignore_errors=True)
    return {"workload": name, "seed": seed, "config_seed": cfg["seed"], "trace": int(trace),
            "path_steps": path_steps(name, cfg), "children": children}


def _checked(res, out_dir, ref, first_digest):
    if "error" not in res:
        res["digest"] = _digest(out_dir)
        problems = [] if ref is None else compare(summarize(out_dir), ref)
        if first_digest is not None and res["digest"] != first_digest:
            problems.append("CSV bytes differ from the first run with this config")
        if problems:
            res["error"] = "; ".join(problems[:5])
    return res


# -- metrics -------------------------------------------------------------------

def _stats(values):
    values = sorted(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def scaled(child, key, name):
    """The child's `key` timing at reference machine speed: the raw time times
    the kernel's reference time over its time in this child, the mean of its
    runs just before and just after the CLI run."""
    now = (child["cal_before"]["total"] + child["cal_after"]["total"]) / 2
    return child[key] * REFERENCE_S[WORKLOADS[name][1]] / now


def end_to_end(run):
    name = run["workload"]
    ok = [c for c in run["children"] if c["mode"] == "plain" and "wall_s" in c]
    steps = run["path_steps"]
    series = {
        "wall_s": ([scaled(c, "wall_s", name) for c in ok], "s"),
        "path_steps_per_s": ([steps / scaled(c, "wall_s", name) for c in ok], "1/s"),
        "peak_rss_mb": ([c["peak_rss_mb"] for c in ok], "MB"),
        "setup_s": ([scaled(c, "setup_s", name) for c in ok], "s"),
    }
    return {k: dict(_stats(v), unit=u) for k, (v, u) in series.items() if v}


def raw_timings(run):
    """The unscaled wall_s and setup_s, printed beside the scaled ones."""
    ok = [c for c in run["children"] if c["mode"] == "plain" and "wall_s" in c]
    return {f"raw {k}": dict(_stats([c[k] for c in ok]), unit="s")
            for k in ("wall_s", "setup_s") if ok}


def layer_values(spans, steps):
    """Per-layer metrics of one traced child, from its span summary."""

    def get(span, key):
        return float(spans.get(span, {}).get(key, 0.0))

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    m = {}
    for part in ("stream", "refine", "sample_brownian", "derive_seed"):
        m[f"noise.{part}.calls"] = (get(f"noise.{part}", "calls"), "count")
        m[f"noise.{part}.self_s"] = (get(f"noise.{part}", "self_s"), "s")
    m["noise.normal.values"] = (get("noise.normal", "values"), "count")
    m["noise.normal.self_s"] = (get("noise.normal", "self_s"), "s")
    m["noise.increments_bytes"] = (get("noise.increments", "bytes_max"), "bytes")
    for part in ("drift", "diffusion"):
        m[f"models.{part}.calls"] = (get(f"models.{part}", "calls"), "count")
        m[f"models.{part}.self_s"] = (get(f"models.{part}", "self_s"), "s")
    field_s = get("models.drift", "self_s") + get("models.diffusion", "self_s")
    m["models.ns_per_path_step"] = (per(field_s, steps, 1e9), "ns")
    integ_s, integ_steps = get("integrate", "self_s"), get("integrate", "path_steps")
    m["integrate.self_s"] = (integ_s, "s")
    m["integrate.path_steps"] = (integ_steps, "count")
    m["integrate.ns_per_path_step"] = (per(integ_s, integ_steps, 1e9), "ns")
    m["integrate.states_bytes"] = (get("integrate", "states_bytes_max"), "bytes")
    m["vecalg.functional.calls"] = (get("vecalg.functional", "calls"), "count")
    m["vecalg.functional.self_s"] = (get("vecalg.functional", "self_s"), "s")
    m["analyze.self_s"] = (get("analyze", "self_s"), "s")
    m["cli.load_config_s"] = (get("cli.load_config", "total_s"), "s")
    write_s, values = get("cli.write", "self_s"), get("cli.write", "values")
    m["cli.write.self_s"] = (write_s, "s")
    m["cli.write.values"] = (values, "count")
    m["cli.write.bytes"] = (get("cli.write", "bytes"), "bytes")
    m["cli.write.ns_per_value"] = (per(write_s, values, 1e9), "ns")
    return m


def per_layer(run):
    traced = [c for c in run["children"] if c["mode"] == "trace" and "spans" in c]
    out = {}
    if traced:
        per_child = [layer_values(c["spans"], run["path_steps"]) for c in traced]
        for key, (_, unit) in per_child[0].items():
            out[key] = dict(_stats([m[key][0] for m in per_child]), unit=unit)
    memory = [c["analyze_peak_mb"] for c in run["children"]
              if c["mode"] == "memory" and "analyze_peak_mb" in c]
    if memory:
        out["analyze.tracemalloc_peak_mb"] = dict(_stats(memory), unit="MB")
    name = run["workload"]
    plain = [scaled(c, "wall_s", name) for c in run["children"]
             if c["mode"] == "plain" and "wall_s" in c]
    traced_wall = [scaled(c, "wall_s", name) for c in traced]
    if plain and traced_wall:
        overhead = statistics.median(traced_wall) - statistics.median(plain)
        out["trace.overhead_s"] = dict(_stats([overhead]), unit="s")
    return out


# -- machine facts -------------------------------------------------------------

def _read(path, default="unknown"):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    head = _read(git / "HEAD", "")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[5:]
    commit = _read(git / ref, "")
    if not commit:
        for line in _read(git / "packed-refs", "").splitlines():
            if line.endswith(" " + ref):
                commit = line.split()[0]
    return commit or "unknown"


def machine_facts():
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "commit": git_commit(),
        "loadavg_start": _read("/proc/loadavg"),
    }


# -- reporting -----------------------------------------------------------------

def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def report(run, facts):
    """Human-readable lines, then the result dict for the last line."""
    children = run["children"]
    failed = [c for c in children if "error" in c]
    stats = per_layer(run) if run["trace"] else end_to_end(run)
    print(f"workload {run['workload']}  seed {run['seed']} (config seed {run['config_seed']})  "
          f"trace {run['trace']}  path-steps {run['path_steps']}")
    shown = dict(stats, **({} if run["trace"] else raw_timings(run)))
    for key, s in shown.items():
        print(f"  {key:30s} {s['median']:.6g} {s['unit']}  "
              f"(q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n={s['n']})")
    print(f"  {'error_rate':30s} {len(failed) / len(children):.6g} ratio  "
          f"({len(failed)} failed of {len(children)} attempted)")
    for c in failed:
        print(f"  failed {c['mode']} run: {c['error']}")
    print("facts " + json.dumps(facts))
    return {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {k: {"value": s["median"], "unit": s["unit"]} for k, s in stats.items()},
    }


def save(run, facts, result):
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{run['workload']}_seed{run['seed']}_trace{run['trace']}.json"
    (out / name).write_text(json.dumps({"facts": facts, "result": result, "run": run}, indent=1))


def one(name, seed, seconds, trace):
    facts = machine_facts()
    run = measure(name, seed, seconds, trace)
    facts["loadavg_end"] = _read("/proc/loadavg")
    result = report(run, facts)
    save(run, facts, result)
    return result


def smoke():
    """All four workloads at tiny sizes, untraced and traced; checks that every
    declared metric is printed with its declared unit and that tracing leaves
    the CSV bytes unchanged.  Returns the process exit code."""
    e2e_units, layer_units = _declared()
    problems = []
    for name in WORKLOADS:
        facts = machine_facts()
        for trace, units in ((0, e2e_units), (1, layer_units)):
            run = measure(name, 0, 0, trace, smoke=True)
            result = report(run, facts)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{name} trace {trace}: metrics {got}, declared {units}")
            if not result["correct"]:
                problems.append(f"{name} trace {trace}: {result['failed']} runs failed")
    for p in problems:
        print("SMOKE FAIL " + p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stochlab" / "__init__.py").is_file():
        print(f"no stochlab sources under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        table = {name: one(name, args.seed, args.seconds, args.trace) for name in WORKLOADS}
        print(json.dumps(table))
        return 0
    print(json.dumps(one(args.workload, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
