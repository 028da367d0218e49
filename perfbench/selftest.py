"""Self-test of the benchmark, at the tiny size of every workload.

    python3 perfbench/selftest.py        # from the root of a checkout

Runs each workload through run.py untraced and traced, and checks that:

- the result line names exactly the metrics of BENCHMARK.json, with their units;
- every pass is correct, and all passes of both runs share one result digest;
- the exact counts equal their formulas at the tiny size;
- the same seed generates the same inputs;
- run.py fails, printing no result, where there is no library to measure.

Exits 0 when everything holds; prints each failed check otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SCRATCH = Path(".perfbench") / "selftest"
SEED = 7
GRID_POINTS = 1771  # distributions on the 4-simplex with weights in steps of 1/20


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    """run.py of the checkout at cwd, at the tiny size."""
    return subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def expected_counts(workload: str) -> dict[str, int]:
    """Exact per-layer counts of one pass at the tiny size."""
    s = inputs.SIZES[workload]["tiny"]
    zero = ("core.distributions_built", "core.dataset_slices", "core.tokens_indexed",
            "learners.train_calls", "coupling.tapes", "coupling.race_cells",
            "coupling.mc_tapes", "dp.hist_calls", "dp.audit_pairs", "naf.witness_calls",
            "transform.project_calls", "transform.fallbacks", "util.derive_seed_calls",
            "cli.corpus_parses")
    counts = dict.fromkeys(zero, 0)
    if workload == "prop1":
        o, i, p, k, z = s["outer"], s["inner"], s["premise"], s["expected_k"], len(inputs.D8)
        counts.update({
            # 2 premise models per trial; per outer trial k shards, the base
            # model, one projection per inner trial and the mean model.
            "core.distributions_built": 2 * p + o * (k + 1 + i + 1),
            "core.dataset_slices": o * k,
            "learners.train_calls": o * (k + 1) + 2 * p,
            "coupling.tapes": o * i,
            "coupling.race_cells": o * i * k * z,
            "dp.hist_calls": o * i,
            "transform.project_calls": o * i,
            # 1 premise root, 4 per premise trial; per outer trial 4 roots,
            # k shard seeds and a (tape, noise) pair per inner trial.
            "util.derive_seed_calls": 1 + 4 * p + o * (4 + k + 2 * i),
        })
    elif workload == "oracle_checks":
        k, z = s["audit_k"], s["audit_domain"]
        counts.update({
            "coupling.mc_tapes": (s["pairs"] + s["marginals"]) * s["tapes"],
            "naf.witness_calls": s["nfl_pairs"] * GRID_POINTS,
            "dp.hist_calls": s["hist_runs"],
            # Ordered replacement neighbours: pick a nonempty bin to leave
            # and another bin to enter, over all count vectors.
            "dp.audit_pairs": (z - 1) * z * math.comb(k + z - 2, z - 1),
        })
    else:
        counts.update({"core.tokens_indexed": 2 * s["tokens"], "cli.corpus_parses": 2,
                       "dp.hist_calls": 1})
    return counts


def check_workload(workload: str, spec: dict) -> list[str]:
    errors = []
    results, digests = {}, set()
    for trace in (0, 1):
        proc = _run(workload, trace)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            return [f"{workload} trace {trace}: exit {proc.returncode}, {proc.stderr[-500:]}"]
        details, result = json.loads(lines[-2])["details"], json.loads(lines[-1])
        results[trace] = result
        invariants = details.get("invariants", {})
        digests.update(details["digests"])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{workload} trace {trace}: result keys {sorted(result)}")
        if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 2):
            errors.append(f"{workload} trace {trace}: {result['attempted']} passes, "
                          f"{result['failed']} failed: {details['failures']}")
        wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != wanted:
            errors.append(f"{workload} trace {trace}: metrics/units {got} != {wanted}")
    if len(digests) != 1:
        errors.append(f"{workload}: traced and untraced passes gave digests {sorted(digests)}")
    for name, value in results[0]["metrics"].items():
        if not value["value"] > 0:
            errors.append(f"{workload}: end-to-end {name} = {value['value']}")
    layers = {name: m["value"] for name, m in results[1]["metrics"].items()}
    layers.update(invariants)
    for name, want in expected_counts(workload).items():
        if layers[name] != want:
            errors.append(f"{workload}: {name} = {layers[name]}, formula gives {want}")
    noised = layers["dp.symbols_noised"]
    if not 0 <= layers["dp.symbols_suppressed"] <= noised:
        errors.append(f"{workload}: suppressed symbols exceed the {noised} noised")
    return errors


def check_inputs_repeat() -> list[str]:
    errors = []
    for workload in inputs.SIZES:
        made = []
        for copy in ("a", "b"):
            workdir = SCRATCH / f"{workload}-{copy}"
            inputs.generate(workload, SEED, "tiny", workdir)
            made.append({f.name: f.read_text(encoding="utf-8").replace(str(workdir), "")
                         for f in workdir.iterdir()})
        if made[0] != made[1]:
            errors.append(f"{workload}: seed {SEED} generated different inputs twice")
    return errors


def check_bare_directory() -> list[str]:
    """With only BENCHMARK.json and perfbench/, run.py must fail without a result."""
    bare = SCRATCH / "bare"
    bare.mkdir(parents=True)
    shutil.copy2(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".perfbench"))
    proc = _run("prop1", 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    shutil.rmtree(SCRATCH, ignore_errors=True)
    errors = []
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            errors += check_workload(workload, spec)
        errors += check_inputs_repeat()
        errors += check_bare_directory()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    for error in errors:
        print("FAIL", error)
    print("selftest:", "ok" if not errors else f"{len(errors)} failed checks")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
