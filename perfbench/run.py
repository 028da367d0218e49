"""Benchmark entry point for stability-lab.

    python3 perfbench/run.py --workload {prop1,oracle_checks,cli_hist} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a stability-lab checkout; it measures the library
in that checkout's `src/`. One run:

1. generates the workload's inputs from --seed (numpy only, not timed);
2. starts SETUP_PROBES[size] fresh processes that import stability_lab and build
   the inputs, and reports the median as `setup_s`;
3. starts one worker process that runs timed passes for --seconds;
4. scales every time to the reference kernel's nominal speed (reference.py),
   from the kernel's times just before and after it, so that the machine's
   changes of speed cancel; the raw times are in the details line;
5. checks every pass (predicate, and a result digest that must not change
   between passes), and prints a details line and then the result line.

With --trace 0 the result carries the end-to-end metrics; with --trace 1
the per-layer metrics from the traced passes, and `trace_overhead`; the
exact counts in tracing.INVARIANT go to the details line instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference
import tracing

HERE = Path(__file__).resolve().parent
WORK = Path(".perfbench")
# Fresh processes timed for setup_s, by --size.
SETUP_PROBES = {"full": 5, "tiny": 2}
# Every child is killed if the run would otherwise exceed this.
RUN_LIMIT_S = 175.0

PASS_WORK = {"prop1": ("transforms_per_s", "transforms"),
             "cli_hist": ("tokens_per_s", "tokens")}


class RunError(Exception):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion (or kill it at the deadline); parse its JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise RunError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from None
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError("worker printed no result")
    return json.loads(lines[-1])


def _tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it (None if n < 11)."""
    n = len(samples)
    if n < 11:
        return {"percentile": None, "value": None, "samples": n}
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11], "samples": n}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _judge_passes(passes: list[dict]) -> dict[int, list[str]]:
    """Failed passes and why: a broken predicate, a changed digest or exact count."""
    failures = {}
    digests = [p["digest"] for p in passes if p["digest"]]
    first = digests[0] if digests else None
    counts = [p["layers"] for p in passes if "layers" in p]
    for p in passes:
        why = list(p["problems"])
        if p["digest"] != first:
            why.append(f"digest {p['digest']} differs from pass 0's {first}")
        if "layers" in p:
            changed = [m for m in tracing.EXACT if p["layers"][m] != counts[0][m]]
            if changed:
                why.append(f"exact counts changed between passes: {changed}")
        if why:
            failures[p["pass"]] = why
    return failures


def run(args) -> tuple[dict, dict]:
    root = Path.cwd().resolve()
    if not (root / "src" / "stability_lab" / "__init__.py").is_file():
        raise RunError("no src/stability_lab here; run from the root of a stability-lab checkout")
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK / f"{args.workload}-{args.size}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs_path = inputs.generate(args.workload, args.seed, args.size, workdir)
        env = {k: v for k, v in os.environ.items() if k != "STABILITY_LAB_THREADS"}
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONHASHSEED"] = "0"
        common = ["--workload", args.workload, "--inputs", str(inputs_path)]
        raw_setups, setups = [], []
        reference.seconds()  # builds the kernel's inputs and warms it up
        before = reference.seconds()
        for _ in range(SETUP_PROBES[args.size]):
            raw_setups.append(_child([*common, "--setup-only"], env, deadline)["setup_s"])
            after = reference.seconds()
            setups.append(reference.scaled(raw_setups[-1], before, after))
            before = after
        spans_path = WORK / f"spans-{args.workload}-{args.size}.npz"
        out = _child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                      "--spans", str(spans_path)], env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    library = Path(out["library"]).resolve()
    if (root / "src") not in library.parents:
        raise RunError(f"imported stability_lab from {library}, not from this checkout")

    passes = out["passes"]
    failures = _judge_passes(passes)
    timed = [p for p in passes if "wall_s" in p]
    for p in timed:
        p["scale"] = reference.scaled(1.0, *p["reference_s"])
    plain = [p for p in timed if not p["traced"]]
    traced = [p for p in timed if p["traced"] and "layers" in p]
    if not plain or (args.trace and not traced):
        raise RunError("no pass completed")
    wall = statistics.median(p["wall_s"] * p["scale"] for p in plain)

    if args.trace:
        metrics = {}
        for name in tracing.BUSY.keys() | {"transform.self_s", "cli.overhead_s"}:
            metrics[name] = _metric(
                statistics.median(p["layers"][name] * p["scale"] for p in traced), "s")
        for name in set(tracing.EXACT) - set(tracing.INVARIANT):
            metrics[name] = _metric(traced[0]["layers"][name], "count")
        traced_wall = statistics.median(p["wall_s"] * p["scale"] for p in traced)
        metrics["trace_overhead"] = _metric(traced_wall / wall - 1.0, "ratio")
        metrics = dict(sorted(metrics.items()))
    else:
        metrics = {"wall_s": _metric(wall, "s"),
                   "setup_s": _metric(statistics.median(setups), "s"),
                   "peak_rss_mb": _metric(out["peak_rss_mb"], "MB")}

    throughput = {}
    if args.workload in PASS_WORK:
        name, unit = PASS_WORK[args.workload]
        throughput[name] = passes[0]["work"].get(unit, 0) / wall
    failed = len(failures)
    details = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "machine": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                    "cpu_model": _cpu_model(), "python": out["python"],
                    "numpy": out["numpy"], "platform": platform.platform()},
        "environment": {"STABILITY_LAB_THREADS": "unset (library default)",
                        "PYTHONHASHSEED": "0", "worker_processes": 1},
        "wall_s": _summary([p["wall_s"] * p["scale"] for p in plain]),
        "raw_wall_s": _summary([p["wall_s"] for p in plain]),
        "reference_s": [p["reference_s"] for p in timed],
        "setup_s": {"median": statistics.median(setups), "samples": setups},
        "raw_setup_s": {"median": statistics.median(raw_setups), "samples": raw_setups},
        "throughput": throughput,
        "work_per_pass": passes[0]["work"],
        "digests": sorted({p["digest"] for p in passes if p["digest"]}),
        "error_rate": failed / len(passes),
        "failures": failures,
        "counter_errors": out["counter_errors"],
        "spans": str(spans_path) if args.trace else None,
    }
    if args.trace:
        details["invariants"] = {name: traced[0]["layers"][name] for name in tracing.INVARIANT}
        details["traced_wall_s"] = _summary([p["wall_s"] * p["scale"] for p in traced])
    result = {"correct": failed == 0, "attempted": len(passes), "failed": failed,
              "metrics": metrics}
    return details, result


def _summary(samples: list[float]) -> dict:
    """Median, quartiles and tail of pass times, with the passes themselves."""
    quartiles = statistics.quantiles(samples, n=4)[::2] if len(samples) > 1 else None
    return {"median": statistics.median(samples), "quartiles": quartiles,
            "tail": _tail(samples), "passes": samples}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for perfbench/selftest.py only")
    args = parser.parse_args()
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        details, result = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
