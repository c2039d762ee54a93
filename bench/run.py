#!/usr/bin/env python3
"""Benchmark of the ppst pipeline: two closed-loop workloads, one caller each.

    python3 bench/run.py --workload long-story --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --tiny          # all workloads, traced and untraced, tiny sizes

Run it from a checkout of the repository: it imports `ppst` from `src/`
next to this directory and fails when that is missing. It builds every input
from `--seed`, sets up the workload several times (reporting the fastest as
`setup_s`), and repeats the workload's operations, at least one whole cycle,
until `--seconds` have passed, checking every output. With `--trace 0` it prints the end-to-end
metrics of BENCHMARK.json; with `--trace 1` it runs one untraced and one
traced cycle and prints the per-layer metrics, including the tracing
overhead. The last line of standard output is the JSON result. Files go to
`.bench_work/` (scratch, removed at exit) and `.bench_out/` (result and span
files) in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# One BLAS thread: the matrices are too small to gain from a second one (d128,
# at most 8x128 rows), and on a small shared host a second thread only adds
# waiting on whichever core is busy. Must be set before numpy loads OpenBLAS.
BLAS_CAP = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_CAP)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["long-story", "style-train"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run every workload (or --workload) traced and untraced "
                             "at tiny sizes: the benchmark's smoke test")
    args = parser.parse_args(argv)
    if not args.tiny and args.workload is None:
        parser.error("--workload is required unless --tiny is given")
    return args


def timed_run(workload, seconds, tally):
    from common import cycle_tok_per_s, part_seconds

    def set_up(repeats):
        for repeat in repeats:
            started = perf_counter()
            workload.setup(repeat)
            setups.append(perf_counter() - started)

    # half of the set-ups run after the timed phase, so that one slow phase of
    # the host cannot cover all of them
    setups = []
    half = workload.setup_repeats // 2
    set_up(range(half))
    samples = []
    op = 0
    started = perf_counter()
    while op < workload.cycle or perf_counter() - started < seconds:
        samples.extend(workload.run_op(op, tally))
        op += 1
    metrics = {}
    if samples:
        metrics["cycle_tok_per_s"] = (cycle_tok_per_s(samples), "tok/s")
        for part, part_s in part_seconds(samples).items():
            metrics[f"{part}_s_p25"] = (part_s, "s")
        metrics.update(workload.metrics(samples))
    set_up(range(half, workload.setup_repeats))
    metrics["setup_s"] = (min(setups), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MiB")
    return metrics


def traced_run(workload, tally, names, spans_path):
    from tracing import Tracer, layer_metrics

    tracer = Tracer()

    def cycle(traced):
        started = perf_counter()
        for op in range(workload.cycle):
            with tracer.span("bench.op", new_request=True) if traced else nullcontext():
                workload.run_op(op, tally)
        return perf_counter() - started

    tracer.install()
    try:
        with tracer.span("bench.setup"):
            workload.setup(0)
    finally:
        tracer.uninstall()
    untraced_s = cycle(False)
    tracer.install()
    try:
        with tracer.span("bench.timed"):
            traced_s = cycle(True)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    values = layer_metrics(tracer.spans, names)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return values


def run_one(name, seed, seconds, trace, tiny, spec):
    # these import ppst, which main() has put on the path
    from common import Tally, environment
    from long_story import LongStory
    from style_train import StyleTrain

    workloads = {w.name: w for w in (LongStory, StyleTrain)}
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    out_dir = ROOT / ".bench_out"
    work_root = ROOT / ".bench_work"
    out_dir.mkdir(exist_ok=True)
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    tally = Tally()
    try:
        workload = workloads[name](seed, tiny, workdir)
        if trace:
            values = traced_run(workload, tally, list(units),
                                out_dir / f"spans-{name}-seed{seed}.jsonl.gz")
            shown = {k: (v, units.get(k, "")) for k, v in values.items()}
        else:
            shown = timed_run(workload, seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = [m for m in units if m not in shown]
    tally.check("metrics", not missing, f"not measured: {', '.join(missing)}")
    shown["failed_frac"] = (tally.failed / tally.attempted, "ratio")

    env = environment(seed, BLAS_CAP)
    print(f"# {name} seed={seed} trace={trace} tiny={int(tiny)} {json.dumps(env)}")
    for metric, (value, unit) in shown.items():
        print(f"{metric:<48} {value:>14.6g} {unit}")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": shown[m][0], "unit": units[m]}
                    for m in units if m in shown},
    }
    record = dict(result, workload=name, trace=trace, tiny=tiny, environment=env,
                  reported={k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                  failures=tally.failures)
    (out_dir / f"result-{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return result


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "ppst" / "__init__.py").is_file():
        print(f"bench: no ppst sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not args.tiny:
        run_one(args.workload, args.seed, args.seconds, args.trace, False, spec)
        return 0
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    results = [run_one(name, args.seed, min(args.seconds, 1.0), trace, True, spec)
               for name in names for trace in (0, 1)]
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
