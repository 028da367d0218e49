"""Seeded input generation for the benchmark workloads.

Runs in the benchmark's parent process with numpy only; it never imports
stability_lab, and its cost is in neither `setup_s` nor `wall_s`. The same
(workload, seed, size) always yields the same inputs, so a claim made on one
seed can be checked again on a seed chosen later.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# The 8-symbol law of the acceptance suite (criteria 5 and 6).
D8 = [0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04]

# Independent random streams per workload, so seed n of one workload shares
# no draws with seed n of another.
_STREAM = {"prop1": 1, "oracle_checks": 2, "cli_hist": 3}

# "full" is the measured size; "tiny" is only for perfbench/selftest.py.
SIZES = {
    "prop1": {
        # Acceptance criterion 6: eta = 0.05 pins k = required_k = 3170.
        "full": {"epsilon": 1.0, "delta": 1e-6, "eta": 0.05, "m": 50,
                 "expected_k": 3170, "outer": 20, "inner": 300, "premise": 200},
        "tiny": {"epsilon": 1.0, "delta": 1e-6, "eta": 0.45, "m": 5,
                 "expected_k": 275, "outer": 2, "inner": 3, "premise": 4},
    },
    "oracle_checks": {
        "full": {"pairs": 50, "marginals": 5, "tapes": 100_000, "nfl_pairs": 100,
                 "hist_runs": 1000, "audit_k": 10, "audit_domain": 5},
        "tiny": {"pairs": 3, "marginals": 2, "tapes": 2_000, "nfl_pairs": 2,
                 "hist_runs": 5, "audit_k": 3, "audit_domain": 2},
    },
    "cli_hist": {
        "full": {"tokens": 1_000_000, "domain": 5000, "zipf": 1.1},
        "tiny": {"tokens": 3_000, "domain": 50, "zipf": 1.1},
    },
}

# Criterion-5 histogram accuracy: (epsilon, delta, eta, beta) pins k = 1474.
HIST_PARAMS = {"epsilon": 1.0, "delta": 1e-6, "eta": 0.1, "beta": 0.1, "expected_k": 1474}
# Criterion-4 audit parameters, applied at the size's (k, |Z|).
AUDIT_PARAMS = {"epsilon": 1.0, "delta": 1e-3, "tail": 1e-12}


def _seed64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def _dirichlet(rng: np.random.Generator, size: int, sparsify: float = 0.0) -> list[float]:
    """Uniform draw from the simplex; optionally zero some coordinates."""
    w = rng.dirichlet(np.ones(size))
    if sparsify > 0:
        keep = rng.random(size) >= sparsify
        if not keep.any():
            keep[rng.integers(size)] = True
        w = np.where(keep, w, 0.0)
        w = w / w.sum()
    return [float(x) for x in w]


def _prop1(rng, size: dict, workdir: Path) -> dict:
    return {**size, "law": D8, "root_seed": _seed64(rng)}


def _oracle_checks(rng, size: dict, workdir: Path) -> dict:
    pairs = []
    for i in range(size["pairs"]):
        z = int(rng.integers(2, 9))
        sparsify = 0.2 if i % 5 == 0 else 0.0
        pairs.append({"w1": _dirichlet(rng, z, sparsify),
                      "w2": _dirichlet(rng, z, sparsify),
                      "tape_seed": _seed64(rng)})
    marginals = [{"w": _dirichlet(rng, int(rng.integers(2, 9))), "tape_seed": _seed64(rng)}
                 for _ in range(size["marginals"])]
    # Full support keeps TV < 1, where the NFL bound is informative.
    nfl_pairs = [{"w1": _dirichlet(rng, 4), "w2": _dirichlet(rng, 4)}
                 for _ in range(size["nfl_pairs"])]
    sample = rng.choice(len(D8), size=HIST_PARAMS["expected_k"], p=D8)
    return {
        **size,
        "coupling_pairs": pairs,
        "marginal_laws": marginals,
        "nfl_pairs": nfl_pairs,
        "hist": {**HIST_PARAMS, "sample": [int(x) for x in sample],
                 "noise_seeds": [_seed64(rng) for _ in range(size["hist_runs"])]},
        "audit": AUDIT_PARAMS,
    }


def _cli_hist(rng, size: dict, workdir: Path) -> dict:
    ranks = np.arange(1, size["domain"] + 1, dtype=np.float64)
    p = ranks ** -size["zipf"]
    idx = rng.choice(size["domain"], size=size["tokens"], p=p / p.sum())
    names = np.array([f"tok{r:05d}" for r in range(size["domain"])])
    corpus = workdir / "corpus.txt"
    corpus.write_text("\n".join(names[idx].tolist()) + "\n", encoding="utf-8")
    config = workdir / "hist.json"
    config.write_text(json.dumps({"dataset": str(corpus), "epsilon": 1.0, "delta": 1e-6}),
                      encoding="utf-8")
    return {**size, "config": str(config), "report": str(workdir / "report.json"),
            "cli_seed": int(rng.integers(0, 2**31))}


_GENERATORS = {"prop1": _prop1, "oracle_checks": _oracle_checks, "cli_hist": _cli_hist}


def generate(workload: str, seed: int, size: str, workdir: Path) -> Path:
    """Write the inputs of one (workload, seed, size) under workdir; return the JSON path."""
    workdir.mkdir(parents=True, exist_ok=True)
    # SeedSequence takes non-negative entropy; this maps every int seed to one.
    rng = np.random.default_rng([seed % 2**64, _STREAM[workload]])
    inputs = _GENERATORS[workload](rng, SIZES[workload][size], workdir)
    inputs.update(workload=workload, seed=seed, size=size)
    path = workdir / "inputs.json"
    path.write_text(json.dumps(inputs), encoding="utf-8")
    return path
