#!/usr/bin/env python3
"""Benchmark of the conictopes verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from ``src/``.

--trace 0 measures end to end, in this process, closed loop with one caller
and jobs=1: call the workload's public entry point unit after unit until
``--seconds`` of timed calls have passed, with a batch of untimed set-ups
(field, plane, engine tables) before each unit.  Every unit's output is
checked (see ``workloads.py``).  Times are reported at a reference machine
speed, gauged by ``probe`` around every unit and set-up batch; the unscaled
figures are printed as well.

--trace 1 gives the per-layer split.  It runs the workload's fixed first
units (the same inputs for a seed, so counts repeat) in three fresh
processes: once untraced, twice traced.  The traced runs wrap each module's
public functions (``tracer.py``).  All three must produce the same report
bytes, and the two traced runs the same counts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count.  The exit code is 1 when a
verdict fails its check, a digest does not match, or traced counts drift.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 0
# a timed run's set-up batch repeats set-up until it has taken SETUP_BATCH_S
# over at least SETUP_BATCH_REPS set-ups, or has taken SETUP_BATCH_MAX_S
SETUP_BATCH_S, SETUP_BATCH_REPS, SETUP_BATCH_MAX_S = 0.02, 3, 0.2
# the fixed work of a traced run; a timed run does at least this and one block
FIXED_UNITS = {"sweep-full": 1, "sweep-orbits": 1, "classify-matrix": 8, "tau-survey": 13}
TRACED_DEADLINE_S = 170   # the three processes of a traced run, together
# the speed probe: its loop count, and the time it takes at the reference speed
PROBE_ITERS = 200_000
PROBE_REF_S = 0.025
_PROBE_TABLE = list(range(4096))
MODULES = ("cli", "corr", "engine", "geom", "gf", "grp", "perspectivity", "plane",
           "triangles")

END_TO_END = {
    "setup_s": "s",
    "triples_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.build_s": "s",
    **{f"{layer}.{m}": unit
       for layer in ("engine.pair", "engine.sp_intersect", "engine.closure_ids",
                     "engine.group_label", "grp.closure", "grp.identify_group",
                     "corr.correlation_witness")
       for m, unit in (("calls", "count"), ("s", "s"))},
    "engine.pair.hit_ratio": "ratio",
    "engine.closure_ids.full_group_ratio": "ratio",
    "engine.group_label.hit_ratio": "ratio",
    "geom.coset_criteria.calls": "count",
    "geom.coset_criteria.self_s": "s",
    "triangles.verify_main.self_s": "s",
    "triangles.classify_triangle.calls": "count",
    "triangles.classify_triangle.self_s": "s",
    "grp.closure.elements": "count",
    "perspectivity.mat_mul.calls": "count",
    "perspectivity.mat_vec.calls": "count",
    "gf.Field.add.calls": "count",
    "plane.Plane.normalize.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_share": "ratio",
}


class BenchFailure(RuntimeError):
    """The benchmark could not run: no sources, a crashed child, bad data."""


def load_package():
    """Import conictopes from this checkout's src/ and nowhere else."""
    if not (SRC / "conictopes" / "__init__.py").is_file():
        raise BenchFailure(f"no conictopes sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    mods = {m: importlib.import_module(f"conictopes.{m}") for m in MODULES}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "conictopes":
        raise BenchFailure(f"conictopes imported from {mods['cli'].__file__}, not {SRC}")
    return SimpleNamespace(**mods), mods


def load_json(name):
    path = HERE / name
    if not path.is_file():
        raise BenchFailure(f"missing benchmark data {path}")
    return json.loads(path.read_text())


def digest(chunks) -> str:
    return workloads.sha256(b"".join(chunks))


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed.

    The machine is shared, and its speed on identical work swings by up to 2x
    within a minute, for minutes at a time (see NOTES.md).  Timings are scaled
    by PROBE_REF_S over the probes taken just before and after them, which
    reports them at one reference speed.  The loop runs no package code and
    allocates nothing the collector tracks, so it moves only with the machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        acc = 0
        table = _PROBE_TABLE
        for i in range(PROBE_ITERS):
            acc = (acc + table[(acc ^ i) & 4095]) & 0xFFFFF
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scale(before: float, after: float) -> float:
    return PROBE_REF_S / ((before + after) / 2)


def percentile_tail(lat):
    """(value, percentile): the highest percentile with >= 10 samples above it.

    Below 21 samples that point sits under the median, so the median stands
    in for the tail and the percentile says so.
    """
    s = sorted(lat)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50
    idx = n - 11
    return s[idx], round(100 * idx / (n - 1))


# -- one process: timed or fixed ----------------------------------------------


def run_units(pkg, wl, seed, expected, seconds=0.0, tracer=None):
    """Set up, then call the workload's unit on its inputs in turn.

    A timed run (seconds > 0) makes at least ``wl.min_units`` calls, and then
    starts a call only while that brings the timed total nearer to
    ``seconds``: the call is predicted to take the mean of the calls of its
    stratum so far.  It samples set-up in batches, one before every unit, so
    that the samples span the run as the units do.  With seconds = 0 the
    first FIXED_UNITS inputs run once each, with one set-up (one per unit for
    a sweep): fixed work, so counts repeat.  The tracer's spans and counts are
    recorded only if it is installed.
    """
    timed = seconds > 0
    tracer = tracer or tracing.Tracer()
    items = wl.inputs(pkg, seed)
    need = max(FIXED_UNITS[wl.name], wl.min_units if timed else 0)
    r = SimpleNamespace(setups=[], raw_setups=[], raw=[], lat=[], scales=[], strata=[],
                        stream=[], counts={}, gate=workloads.Gate())
    last = probe()

    def set_up():
        nonlocal last
        batch = []
        while not batch or timed and sum(batch) < SETUP_BATCH_MAX_S and (
                sum(batch) < SETUP_BATCH_S or len(batch) < SETUP_BATCH_REPS):
            t0 = perf_counter()
            ctx = tracer.call("setup", wl.setup, pkg)
            batch.append(perf_counter() - t0)
        now = probe()
        scale = speed_scale(last, now)
        last = now
        r.setups.extend(t * scale for t in batch)
        r.raw_setups.extend(batch)
        return ctx

    ctx = set_up()
    i = 0
    while i < need or sum(r.raw) + predicted(r, items[i % len(items)][0]) / 2 < seconds:
        stratum, item = items[i % len(items)]
        if i and (timed or wl.setup_each_unit):
            fresh = set_up()
            if wl.setup_each_unit:
                ctx = fresh     # a fresh engine, as each CLI run has
        tracer.run_id = i
        before = tracer.snapshot()
        t0 = perf_counter()
        out = tracer.call("workload", wl.unit, pkg, ctx, item)
        r.raw.append(perf_counter() - t0)
        for k, v in tracer.snapshot().items():
            r.counts[k] = r.counts.get(k, 0) + v - before.get(k, 0)
        now = probe()
        r.scales.append(speed_scale(last, now))
        r.lat.append(r.raw[-1] * r.scales[-1])
        last = now
        r.strata.append(stratum)
        data = wl.report(out)
        wl.check(data, item, expected, r.gate)
        if i < FIXED_UNITS[wl.name]:
            r.stream.append(data)
        i += 1
    check_stream(wl, seed, r.stream, expected, r.gate)
    return r


def predicted(r, stratum) -> float:
    """Mean unscaled time of the calls of this stratum so far."""
    times = [t for g, t in zip(r.strata, r.raw) if g == stratum]
    return statistics.fmean(times) if times else 0.0


def check_stream(wl, seed, stream, expected, gate):
    """For the default seed, the first units' report bytes match the record."""
    want = expected.get("stream_sha256")
    if seed != DEFAULT_SEED or want is None:
        return
    got = digest(stream[: expected["units"]])
    if got != want:
        gate.fail(f"{wl.name}: report stream digest {got[:12]} != recorded {want[:12]}")


def rate(wl, strata, times) -> float:
    """Verdicts per second over the population the workload models.

    The mean time of a call is taken per stratum and weighed by the stratum's
    share of the population, so the rate does not depend on the draw's mix,
    nor on where in a block the run stopped.
    """
    by = {}
    for g, t in zip(strata, times):
        by.setdefault(g, []).append(t)
    missing = set(wl.weights) - set(by)
    if missing:
        raise BenchFailure(f"{wl.name}: no call sampled from {sorted(missing)}")
    per_call = sum(w * statistics.fmean(by[g]) for g, w in wl.weights.items())
    return wl.verdicts_per_unit / per_call


def end_to_end(wl, r):
    """The end-to-end metrics of a timed run, each as (value, sample count)."""
    tail, _ = percentile_tail(r.lat)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        # a mean, not a median: the machine flips between a fast and a slow
        # state, and the median of set-ups of a millisecond jumps between the
        # two with the share of the run spent in each (see NOTES.md)
        "setup_s": (statistics.fmean(r.setups), len(r.setups)),
        "triples_per_s": (rate(wl, r.strata, r.lat), wl.verdicts_per_unit * len(r.lat)),
        "verdict_p50_ms": (1000 * statistics.median(r.lat), len(r.lat)),
        "verdict_tail_ms": (1000 * tail, len(r.lat)),
        "peak_rss_mb": (rss_mb, 1),
    }


def fixed_run(pkg, mods, wl, seed, expected, phase):
    """The first FIXED_UNITS inputs, traced or not; returns a JSON-able dict."""
    tracer = tracing.Tracer()
    traced = phase != "fixed"
    if traced:
        tracer.install(mods)
    r = run_units(pkg, wl, seed, expected, tracer=tracer)
    out = {"report_sha256": digest(r.stream), "workload_s": sum(r.lat),
           "attempted": r.gate.attempted, "failed": r.gate.failed, "notes": r.gate.notes}
    if traced:
        out["layers"] = layer_metrics(tracer, r.counts)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{wl.name}-seed{seed}-{phase}.jsonl")
    return out


def layer_metrics(tracer, diff) -> dict:
    """Per-layer metrics of the workload spans; diff holds their counter deltas."""
    work = tracing.span_totals(tracer.spans, "workload")
    setup = tracing.span_totals(tracer.spans, "setup")

    def t(name, key):
        return work.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    m["engine.build_s"] = setup.get("engine.build", {}).get("s", 0.0)
    for name in ("engine.pair", "engine.sp_intersect", "engine.closure_ids",
                 "engine.group_label", "grp.closure", "grp.identify_group",
                 "corr.correlation_witness"):
        m[f"{name}.calls"] = t(name, "calls")
        m[f"{name}.s"] = t(name, "s")
    pair_calls = t("engine.pair", "calls")
    m["engine.pair.hit_ratio"] = ratio(pair_calls - diff["engine.pair.misses"], pair_calls)
    m["engine.closure_ids.full_group_ratio"] = ratio(
        diff["engine.closure_ids.full_group"], t("engine.closure_ids", "calls"))
    label_calls = t("engine.group_label", "calls")
    m["engine.group_label.hit_ratio"] = ratio(
        label_calls - diff["engine.identify_ids"], label_calls)
    m["geom.coset_criteria.calls"] = t("geom.coset_criteria", "calls")
    m["geom.coset_criteria.self_s"] = t("geom.coset_criteria", "self_s")
    m["triangles.verify_main.self_s"] = t("triangles.verify_main", "self_s")
    m["triangles.classify_triangle.calls"] = t("triangles.classify_triangle", "calls")
    m["triangles.classify_triangle.self_s"] = t("triangles.classify_triangle", "self_s")
    m["grp.closure.elements"] = diff["grp.closure.elements"]
    for name in ("perspectivity.mat_mul", "perspectivity.mat_vec", "gf.Field.add",
                 "plane.Plane.normalize"):
        m[f"{name}.calls"] = diff[name]
    m["cli.main.self_s"] = t("cli.main", "self_s")
    m["trace.unattributed_share"] = ratio(t("workload", "self_s"), t("workload", "s"))
    return m


# metrics that are counts, or ratios of counts: they must repeat exactly
def is_count(name: str) -> bool:
    return name.endswith((".calls", ".elements", "_ratio")) and not name.startswith("trace.")


# -- the traced run: three fresh processes --------------------------------------


def child(args, phase, deadline):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", "0", "--phase", phase]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchFailure(f"{phase} run of {args.workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchFailure(f"{phase} run of {args.workload} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def traced_main(args):
    deadline = perf_counter() + TRACED_DEADLINE_S
    plain = child(args, "fixed", deadline)
    runs = [child(args, "traced-1", deadline), child(args, "traced-2", deadline)]
    gate = workloads.Gate()
    for r in (plain, *runs):
        gate.attempted += r["attempted"]
        gate.failed += r["failed"]
        gate.notes += r["notes"]
    for r in runs:
        if r["report_sha256"] != plain["report_sha256"]:
            gate.fail("traced report bytes differ from the untraced run")
    drift = [k for k, v in runs[0]["layers"].items()
             if is_count(k) and runs[1]["layers"][k] != v]
    if drift:
        gate.fail(f"counts drift between two traced runs: {drift}")
    layers = dict(runs[0]["layers"])
    layers["trace.overhead_ratio"] = runs[0]["workload_s"] / plain["workload_s"]
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        raise BenchFailure(f"per-layer metrics not measured: {missing}")
    for name, unit in PER_LAYER.items():
        print(f"{name} {layers[name]!r} {unit} n={FIXED_UNITS[args.workload]}")
    for note in gate.notes:
        print(f"FAIL {note}")
    return emit(gate, {k: layers[k] for k in PER_LAYER}, PER_LAYER)


def emit(gate, values, units):
    ok = gate.failed == 0
    result = {"correct": ok, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    print(json.dumps(result))
    return 0 if ok else 1


def timed_main(pkg, wl, args, expected):
    r = run_units(pkg, wl, args.seed, expected, seconds=args.seconds)
    metrics = end_to_end(wl, r)
    gate = r.gate
    _, tail_pct = percentile_tail(r.lat)
    lo, mid, hi = min(r.scales), statistics.median(r.scales), max(r.scales)
    print(f"# {wl.name} seed={args.seed} units={len(r.lat)} "
          f"timed_s={sum(r.raw):.3f} tail=p{tail_pct} "
          f"speed_scale={lo:.3f}/{mid:.3f}/{hi:.3f} nproc={os.cpu_count()} "
          f"python={platform.python_version()} numpy={numpy.__version__}")
    print(f"# unscaled: setup_s={statistics.fmean(r.raw_setups):.6g} "
          f"triples_per_s={rate(wl, r.strata, r.raw):.6g} "
          f"verdict_p50_ms={1000 * statistics.median(r.raw):.6g}")
    for name, (value, n) in metrics.items():
        print(f"{name} {value!r} {END_TO_END[name]} n={n}")
    failed_frac = gate.failed / gate.attempted
    print(f"failed_frac {failed_frac!r} ratio n={gate.attempted}")
    for note in gate.notes:
        print(f"FAIL {note}")
    return emit(gate, {k: v for k, (v, _) in metrics.items()}, END_TO_END)


def all_main(args):
    """Every workload, each in a fresh process; a summary table at the end."""
    failed = []
    results = {}
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=3 * TRACED_DEADLINE_S)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0:
            failed.append(name)
            reason = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            print(f"dropped: {name}: {reason[0]}")
        if lines:
            results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results, "failed": failed}))
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("timed", "fixed", "traced-1", "traced-2"),
                    default="timed",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        if args.workload == "all":
            return all_main(args)
        pkg, mods = load_package()
        expected = load_json("expected.json")
        wl = workloads.build(args.workload, lambda: load_json("tau_orbits.json"))
        exp = expected.get(args.workload)
        if exp is None:
            raise BenchFailure(f"no recorded outputs for {args.workload} in expected.json")
        if args.trace:
            return traced_main(args)
        if args.phase == "timed":
            return timed_main(pkg, wl, args, exp)
        out = fixed_run(pkg, mods, wl, args.seed, exp, args.phase)
        print(json.dumps(out))
        return 0
    except BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
