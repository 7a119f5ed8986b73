#!/usr/bin/env python3
"""Smoke self-test of the benchmark: a few ops per workload, both modes.

    python3 bench/selftest.py

Checks that BENCHMARK.json is well formed and matches what run.py emits
(every metric, with its unit), that no op fails, that in the written trace
the self times of the spans under each op sum to no more than the op's wall
time, and that run.py refuses to run without the lmdst sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SMOKE_OPS = {"train-synth128": 8, "train-synth400": 8, "infer-woz": 2}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_config(cfg: dict) -> None:
    check(set(cfg) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                       "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    check(cfg["paths"] == ["bench"] and cfg["command"] == ["python3", "bench/run.py"],
          "command and paths name only the benchmark directory")
    check(isinstance(cfg["run_seconds"], int) and 1 <= cfg["run_seconds"] <= 60,
          "run_seconds is a whole number in 1..60")
    names = [w["name"] for w in cfg["workloads"]]
    check(names == list(SMOKE_OPS), f"workloads are {list(SMOKE_OPS)}")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
              for w in cfg["workloads"]), "each workload has a one-line why")
    metrics = cfg["end_to_end"] + cfg["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(len(set(all_names)) == len(all_names) and all(NAME.match(n) for n in all_names),
          "names are unique and well formed")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
          "units and directions are well formed")
    check(all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
              for m in cfg["end_to_end"]), "end-to-end bounds are in (0, 0.25]")
    check(all(set(m) == {"name", "unit", "better"} for m in cfg["per_layer"]),
          "per-layer metrics carry no bound")
    setup = [m for m in cfg["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in cfg["end_to_end"]),
          "setup_s is present, in seconds, with the largest bound")


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180, check=False)


def check_trace(path: Path, label: str) -> None:
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    by_id = {s["id"]: s for s in spans}
    nested = all(s["end"] is not None and (s["parent"] is None or (
        by_id[s["parent"]]["start"] <= s["start"] <= s["end"] <= by_id[s["parent"]]["end"]))
        for s in spans)
    check(nested, f"{label}: every span is closed and inside its parent")
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    below = defaultdict(float)  # op root id -> summed self time of spans under it
    for s in spans:
        top = s
        while top["parent"] is not None:
            top = by_id[top["parent"]]
        if top["name"] == "op" and top is not s:
            below[top["id"]] += s["end"] - s["start"] - child[s["id"]]
    roots = [s for s in spans if s["name"] == "op"]
    check(bool(roots) and all(below[r["id"]] <= r["end"] - r["start"] + 1e-9 for r in roots),
          f"{label}: layer self times sum to at most the op wall time ({len(roots)} ops)")


def check_workload(cfg: dict, name: str) -> None:
    for trace in (0, 1):
        label = f"{name} --trace {trace}"
        proc = run(["--workload", name, "--seed", "7", "--seconds", "0",
                    "--max-ops", str(SMOKE_OPS[name]), "--trace", str(trace)], ROOT)
        lines = proc.stdout.strip().splitlines()
        check(proc.returncode == 0 and bool(lines), f"{label}: exits 0 with output")
        if proc.returncode or not lines:
            print(proc.stderr[-2000:])
            continue
        result = json.loads(lines[-1])
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"{label}: result line has exactly the contract keys")
        check(result["correct"] is True and result["failed"] == 0
              and result["attempted"] == SMOKE_OPS[name], f"{label}: no op failed")
        want = {m["name"]: m["unit"] for m in cfg["per_layer" if trace else "end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        check(got == want, f"{label}: every metric emitted with its unit")
        check(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                  for v in result["metrics"].values()), f"{label}: values are finite numbers")
        report = json.loads(lines[-2][len("report "):])
        e2e = set(report["end_to_end"])
        want_e2e = {m["name"] for m in cfg["end_to_end"]} | {"failed_frac"}
        if name.startswith("train"):
            want_e2e.add("loss_end")
        check(e2e == want_e2e and all("samples" in m for m in report["end_to_end"].values()),
              f"{label}: report has all end-to-end metrics with sample counts")
        if trace:
            check(not report["trace_missing"], f"{label}: every layer function was wrapped")
            check_trace(ROOT / report["trace_file"], label)


def check_without_sources() -> None:
    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.glob("*.py"):
        shutil.copy(path, bare / "bench")
    try:
        proc = run(["--workload", "infer-woz", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], bare)
        check(proc.returncode != 0 and '"correct"' not in proc.stdout,
              "without src/ the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    cfg = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_config(cfg)
    for name in SMOKE_OPS:
        check_workload(cfg, name)
    check_without_sources()
    print(f"\n{len(failures)} failed" if failures else "\nall checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
