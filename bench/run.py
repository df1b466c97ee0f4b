"""Benchmark for the thicken library.

    python3 bench/run.py --workload campaign-vr --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ./src. With
--trace 0 the chosen workload runs whole rounds for --seconds and the
end-to-end metrics are printed. With --trace 1 the layer microbenchmarks run,
then an untraced and a traced pass over each of the four workloads, and the
per-layer metrics are printed. Either way the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics, and
a copy goes to bench/out/.
"""
import time

T_START = time.perf_counter()   # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("campaign-vr", "campaign-cech", "homotopy", "transport-large")
TRACE_PASS_SHARE = 1 / 8        # of --seconds, per pass and workload in a traced run
REF_LOOPS = 150                 # about 1 ms on the 2-CPU machine the figures come from
REF_EVERY_S = 0.1
REF_NOMINAL_S = 1e-3            # time metrics are reported at this reference speed


def load_program():
    """Import thicken from this checkout's source tree, never from elsewhere,
    with its default worker count."""
    src = ROOT / "src"
    if not (src / "thicken" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {src / 'thicken'}")
    os.environ.pop("THICKEN_THREADS", None)
    sys.path.insert(0, str(src))
    import thicken
    return thicken


def reference_s() -> float:
    """Seconds for one fixed unit of interpreter and small-array work, the
    kind of work the program does, with the collector off. It tracks how
    fast a shared machine runs at the moment."""
    import numpy as np

    pts = np.linspace(0.0, 1.0, 18).reshape(6, 3)
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(REF_LOOPS):
            d = pts - pts[i % 6]
            acc += float(np.sqrt((d * d).sum(axis=1)).max())
        return time.perf_counter() - t0
    finally:
        gc.enable()


def speed(refs) -> float:
    """How much slower than the reference speed the machine ran."""
    return statistics.median(refs) / REF_NOMINAL_S


def timed(workload, seconds, rounds=None):
    """Whole rounds until `seconds` have passed, or exactly `rounds` rounds.

    Between slots, which are single calls timed from outside, it verifies
    each output and takes a reference timing at most every REF_EVERY_S.
    Returns each round's (operations completed, seconds, operation
    latencies in ms) per slot, the reference timings, and the operations
    attempted and failed."""
    done, refs = [], [reference_s()]
    attempted = failed = 0
    t0 = last_ref = time.perf_counter()
    while True:
        slots = []
        for call in workload.calls(len(done)):
            s0 = time.perf_counter()
            n, ms, out = call()
            dt = time.perf_counter() - s0
            slots.append((n, dt, [1e3 * dt] * n if ms is None else ms))
            a, f = workload.verify(out)
            attempted += a
            failed += f
            if time.perf_counter() - last_ref >= REF_EVERY_S:
                refs.append(reference_s())
                last_ref = time.perf_counter()
        done.append(slots)
        if (len(done) >= rounds) if rounds else (time.perf_counter() - t0 >= seconds):
            return done, refs, attempted, failed


def typical_round(done):
    """Operations per second and operation latencies of a typical round:
    every slot, and every latency within a slot, at its median over the
    rounds. Medians keep short stalls of a shared machine out."""
    ops = secs = 0.0
    lat = []
    for slot in zip(*done):
        ops += statistics.median(n for n, _, _ in slot)
        secs += statistics.median(s for _, s, _ in slot)
        columns = {}
        for _, _, ms in slot:
            for c, v in enumerate(ms):
                columns.setdefault(c, []).append(v)
        lat += [statistics.median(v) for v in columns.values()]
    return ops / secs, lat


def end_to_end(name, seed, seconds):
    import workloads

    thicken = load_program()
    t_import = time.perf_counter()
    w = workloads.make(name, thicken, seed)      # the benchmark's own inputs
    t_inputs = time.perf_counter()
    w.prepare()
    w.warm_up()
    setup_s = (t_import - T_START) + (time.perf_counter() - t_inputs)
    done, refs, attempted, failed = timed(w, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    a, f = w.finish()
    attempted += a
    failed += f
    run_speed = speed(refs)
    rate, lat = typical_round(done)
    raw = {
        "setup_s": setup_s,
        "ops_per_s": rate,
        "op_ms_p50": statistics.median(lat),
        "op_ms_p99": statistics.quantiles(lat, n=100, method="inclusive")[98],
    }
    metrics = {
        "setup_s": (setup_s / run_speed, "s"),
        "ops_per_s": (raw["ops_per_s"] * run_speed, "ops/s"),
        "op_ms_p50": (raw["op_ms_p50"] / run_speed, "ms"),
        "op_ms_p99": (raw["op_ms_p99"] / run_speed, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    extra = {"raw": raw, "run_speed": run_speed,
             "rounds": len(done), "latencies_per_round": len(lat), "references": len(refs)}
    return attempted, failed, metrics, extra


def traced(seed, seconds):
    import layers
    import tracing
    import workloads

    thicken = load_program()
    metrics = layers.microbenchmarks(thicken, seed)
    attempted = failed = 0
    spans, absent = {}, set()
    for name in WORKLOADS:
        w = workloads.make(name, thicken, seed)
        w.prepare()
        w.warm_up()
        untraced, refs_u, a, f = timed(w, seconds * TRACE_PASS_SHARE)
        tracer = tracing.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        try:
            done, refs_t, a2, f2 = timed(w, 0, rounds=len(untraced))
        finally:
            tracer.remove()
        elapsed = time.perf_counter() - t0
        ops = sum(n for rnd in done for n, _, _ in rnd)
        a3, f3 = w.finish()
        attempted += a + a2 + a3
        failed += f + f2 + f3
        slowdown = ((typical_round(untraced)[0] * speed(refs_u))
                    / (typical_round(done)[0] * speed(refs_t)))
        metrics.update(tracing.summarize(name, tracer, ops, elapsed, slowdown))
        spans[name] = tracer.spans
        absent.update(tracer.absent)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-seed{seed}.jsonl", "w") as fh:
        for name, rows in spans.items():
            fh.write(json.dumps({"workload": name, "spans": rows}) + "\n")
    if absent:
        print(f"bench: hooks absent, their metrics omitted: {sorted(absent)}", file=sys.stderr)
    return attempted, failed, metrics, {"absent_hooks": sorted(absent)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.trace:
        attempted, failed, metrics, extra = traced(args.seed, args.seconds)
    else:
        attempted, failed, metrics, extra = end_to_end(args.workload, args.seed, args.seconds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**result, **extra}, indent=1) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
