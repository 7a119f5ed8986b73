#!/usr/bin/env python3
"""lmdst benchmark: one workload per process, seeded inputs, checked outputs.

    python3 bench/run.py --workload train-synth128 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``): the end-to-end metrics untraced,
the per-layer metrics with ``--trace 1``. The line before it, starting with
``report``, holds everything else: units and sample counts, the
environment, failed ops, loss and prediction digests. ``--workload all``
runs every workload in turn, each in its own process, and prints a table.

Workloads (see bench/README.md for why each exists):
  train-synth128  Trainer micro-steps, acceptance corpus, 128-dim
  train-synth400  the same at the 400-dim paper config
  infer-woz       predict_instances on a MultiWOZ-shaped corpus, 400-dim
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("train-synth128", "train-synth400", "infer-woz")
SETUP_REPEATS = 3

# Result-line metrics: end-to-end name -> unit, and the per-layer names.
# Backward, Adam and train-forward times are in the report line only: they
# read 0 on infer-woz, which has no such layer.
END_TO_END = {
    "setup_s": "s",
    "turns_per_s": "turns/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = (
    "corpus.generate_s", "context.build_context_s", "context.build_context.calls",
    "context.tokens_per_turn", "context.pad_frac", "embeddings.table_s",
    "embeddings.table.calls", "embeddings.char_table_mib", "lm.recurrence_s", "lm.rows",
    "model.encoder.recurrence_s", "model.prepare_batch_s", "model.prepare_batch.self_s",
    "model.decoder_s", "model.decoder.gru_steps", "model.decoder.rows_per_step",
    "autodiff.graph_nodes", "autodiff.checkpoint_save_s", "autodiff.checkpoint_load_s",
    "trace.overhead_frac",
)


def pin_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        n = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(n)
    return nproc


def blas_info(np) -> dict:
    info = {"env_threads": int(os.environ["OPENBLAS_NUM_THREADS"])}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        info["vendor"] = "unknown"
    # Ask the loaded OpenBLAS itself how many threads it runs.
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = None
    return info


def environment(nproc: int) -> dict:
    import platform

    import numpy as np
    from lmdst import autodiff as ad
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"nproc": nproc, "cpu": cpu, "blas": blas_info(np), "numpy": np.__version__,
            "python": platform.python_version(), "dtype": str(ad.default_dtype())}


def max_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_op(wl, i: int, tracer):
    """Runs op ``i`` (traced when ``tracer`` is given) between its untimed
    prepare and check. Returns (seconds, turns, failure or None); an op that
    raises counts as failed."""
    dt, turns = 0.0, 0
    try:
        prepared = wl.prepare(i)
        if tracer:
            tracer.install()
            try:
                t0 = time.perf_counter()
                with tracer.span("op", op=i):
                    turns, out = wl.op(prepared)
                dt = time.perf_counter() - t0
            finally:
                tracer.uninstall()
        else:
            t0 = time.perf_counter()
            turns, out = wl.op(prepared)
            dt = time.perf_counter() - t0
        return dt, turns, wl.check(i, prepared, out)
    except Exception:  # keep measuring; the failure is reported
        return dt, turns, traceback.format_exc(limit=3).strip().splitlines()[-1]


def run_workload(args, import_s: float, nproc: int) -> int:
    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    ckpt = str(OUT_DIR / f"{args.workload}-{os.getpid()}.npz")
    wl = workloads.make(args.workload, args.seed, ckpt)

    # Set-up, several times; the median build counts once in setup_s.
    build_s = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer:
            tracer.install()
            with tracer.span("setup", op=f"setup{k}"):
                wl.build(tracer)
            tracer.uninstall()
        else:
            wl.build(None)
        build_s.append(time.perf_counter() - t0)
    if tracer:
        tracer.cell_kind.update(wl.cell_kinds())

    # Warm-up ops: checked, and timed into setup_s only.
    t0 = time.perf_counter()
    warmup_failures = {i: problem for i in range(-wl.warmup_ops(), 0)
                       if (problem := run_op(wl, i, None)[2])}
    warmup_s = time.perf_counter() - t0
    setup_s = import_s + statistics.median(build_s) + warmup_s

    # Timed ops, closed loop: the fixed prefix, then more until --seconds
    # have passed. Peak RSS is read at the end of the prefix, so every commit
    # is compared on the same work. Traced runs alternate traced and
    # untraced blocks so the tracing overhead is measured on the same mix.
    records = []  # (op index, traced, seconds, turns, failure or None)
    prefix_rss = None
    max_ops = args.max_ops if args.max_ops is not None else float("inf")
    t_loop = time.perf_counter()
    i = 0
    while i < max_ops and (i < wl.prefix_ops or time.perf_counter() - t_loop < args.seconds):
        traced = tracer is not None and (i // wl.block) % 2 == 0
        records.append([i, traced, *run_op(wl, i, tracer if traced else None)])
        i += 1
        if i == wl.prefix_ops:
            prefix_rss = max_rss_mib()
    loop_s = time.perf_counter() - t_loop
    for op_i, problem in wl.finish().items():
        if records[op_i][4] is None:
            records[op_i][4] = problem

    failures = {r[0]: r[4] for r in records if r[4]}
    ok = [r for r in records if not r[4]]
    plain = [r for r in ok if not r[1]]
    times = [r[2] for r in plain] or [float("nan")]

    def rate(rows):
        seconds = sum(r[2] for r in rows)
        return sum(r[3] for r in rows) / seconds if seconds else float("nan")

    e2e = {
        "setup_s": (setup_s, SETUP_REPEATS),
        "turns_per_s": (rate(plain), len(plain)),
        "op_ms.p50": (1000 * statistics.median(times), len(plain)),
        "op_ms.p90": (1000 * p90(times), len(plain)),
        "peak_rss_mib": (prefix_rss or max_rss_mib(), min(i, wl.prefix_ops)),
        "failed_frac": (len(failures) / len(records), len(records)),
    }
    summary = wl.summary()
    if "loss_end" in summary:
        e2e["loss_end"] = (summary.pop("loss_end"), summary["loss_prefix_steps"])
    units = {**END_TO_END, "failed_frac": "frac", "loss_end": "nats"}
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(nproc),
        "end_to_end": {k: {"value": v, "unit": units[k], "samples": n}
                       for k, (v, n) in e2e.items()},
        "setup": {"import_s": import_s, "build_s": build_s, "warmup_s": warmup_s,
                  "warmup_ops": wl.warmup_ops()},
        "ops": len(records), "prefix_ops": wl.prefix_ops, "loop_s": loop_s,
        "peak_rss_run_mib": max_rss_mib(), "failures": failures,
        "warmup_failures": warmup_failures, **summary,
    }
    if tracer:
        traced_ops = [r[0] for r in ok if r[1]]
        layers = layer_metrics(tracer, traced_ops, wl.char_table_mib())
        layers["trace.overhead_frac"] = (
            1.0 - rate([r for r in ok if r[1]]) / rate(plain), "frac")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        report["trace_missing"] = tracer.missing
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = {k: report["per_layer"][k] for k in PER_LAYER}
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in END_TO_END.items()}

    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not failures and not warmup_failures,
                      "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another; prints the
    end-to-end metrics of all of them."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.max_ops is not None:
            cmd += ["--max-ops", str(args.max_ops)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.splitlines()
        report = [line for line in lines if line.startswith("report ")]
        if proc.returncode or not report:
            status = proc.returncode or 1
            continue
        rows.append((name, json.loads(report[-1][len("report "):])))
    print()
    for name, report in rows:
        print(name)
        for key, m in report["end_to_end"].items():
            print(f"  {key:14s} {m['value']:12.4f} {m['unit']:8s} n={m['samples']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="stop after this many timed ops (smoke tests)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    nproc = pin_blas_threads()
    src = ROOT / "src"
    if not (src / "lmdst" / "__init__.py").is_file():
        print(f"bench: no lmdst sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import lmdst  # loads numpy, and with it BLAS, under the pinned thread count
    if Path(lmdst.__file__).resolve().parent != src / "lmdst":
        print(f"bench: imported lmdst from {lmdst.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    return run_workload(args, import_s, nproc)


if __name__ == "__main__":
    sys.exit(main())
