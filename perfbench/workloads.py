"""The three workloads: build inputs through the library, run one pass, judge it.

Each workload has three steps:

- `build(lib, inputs)` turns the generated inputs into library objects. It
  runs once per process and is part of `setup_s`.
- `run(lib, state)` is one timed pass. It only calls the library, through
  `lib.calls`, and keeps the raw results; nothing is checked inside it.
- `judge(state, result)` runs after the clock stops. It returns the pass's
  predicate failures (empty when correct), a SHA-256 digest of its results,
  and the units of work the pass completed.

Workload code reaches every library entry point through `lib.calls`, so the
tracer can wrap them where this module looks them up.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np


def load_library() -> SimpleNamespace:
    """Import stability_lab; return its modules and the entry points used here."""
    from stability_lab import cli, core, coupling, dp, learners, naf, transform, util

    calls = SimpleNamespace(
        transform_bound_experiment=transform.transform_bound_experiment,
        disagreement_estimate=coupling.disagreement_estimate,
        coupled_marginal_counts=coupling.coupled_marginal_counts,
        nfl_witness=naf.nfl_witness,
        private_histogram=dp.private_histogram,
        audit_histogram_dp=dp.audit_histogram_dp,
        cli_main=cli.main,
    )
    return SimpleNamespace(core=core, coupling=coupling, dp=dp, naf=naf,
                           transform=transform, learners=learners, cli=cli,
                           util=util, calls=calls)


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _domains(lib):
    """Domain z0..z{n-1} by size, one shared object per size, as callers share them."""
    cache = {}

    def domain(size: int):
        if size not in cache:
            cache[size] = lib.core.ContentDomain(tuple(f"z{i}" for i in range(size)))
        return cache[size]

    return domain


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for a chi-square law with integer df: Q(df/2, x/2).

    Even df: e^-h * sum_{j < df/2} h^j / j!. Odd df: start from
    Q(1/2, h) = erfc(sqrt(h)) and step Q(s+1, h) = Q(s, h) + h^s e^-h / G(s+1).
    """
    h = x / 2.0
    if df % 2 == 0:
        term = total = 1.0
        for j in range(1, df // 2):
            term *= h / j
            total += term
        return math.exp(-h) * total
    q = math.erfc(math.sqrt(h))
    term = math.exp(-h) * math.sqrt(h) / math.gamma(1.5)
    s = 0.5
    while s + 1.0 <= df / 2.0:
        q += term
        s += 1.0
        term *= h / s
    return q


@dataclass
class Judgement:
    problems: list[str]
    digest: str
    work: dict


class Prop1:
    """Criterion 6: transform_bound_experiment with learner_empirical(1.0) on D8."""

    name = "prop1"

    @staticmethod
    def build(lib, inputs: dict) -> SimpleNamespace:
        law = lib.core.make_distribution(_domains(lib)(len(inputs["law"])), inputs["law"])
        config = lib.transform.TransformConfig.from_params(
            epsilon=inputs["epsilon"], delta=inputs["delta"], eta=inputs["eta"], m=inputs["m"])
        return SimpleNamespace(inputs=inputs, law=law, config=config,
                               learner=lib.learners.learner_empirical(1.0))

    @staticmethod
    def run(lib, st):
        i = st.inputs
        return lib.calls.transform_bound_experiment(
            st.learner, st.law, st.config, i["outer"], i["inner"], i["root_seed"],
            premise_trials=i["premise"])

    @staticmethod
    def judge(st, report) -> Judgement:
        problems = []
        if report.config.k != st.inputs["expected_k"]:
            problems.append(f"k = {report.config.k}, expected {st.inputs['expected_k']}")
        if not report.grand_mean_tv <= report.bound + 0.02:
            problems.append(f"grand mean TV {report.grand_mean_tv} > bound {report.bound} + 0.02")
        payload = json.dumps(report.to_json_obj(), sort_keys=True).encode()
        work = {"transforms": report.outer_trials * report.inner_trials}
        return Judgement(problems, _digest(payload), work)


class OracleChecks:
    """Criteria 2, 3, 5 and 4 at their acceptance sizes, in one pass."""

    name = "oracle_checks"

    @staticmethod
    def build(lib, inputs: dict) -> SimpleNamespace:
        mk = lib.core.make_distribution
        domain = _domains(lib)

        def law(w):
            return mk(domain(len(w)), w)

        grid = [mk(domain(4), np.array((a, b, c, 20 - a - b - c), dtype=float) / 20.0)
                for a in range(21) for b in range(21 - a) for c in range(21 - a - b)]
        h = inputs["hist"]
        k = lib.dp.required_k(lib.dp.DpParams(
            epsilon=h["epsilon"], delta=h["delta"], eta=h["eta"], beta=h["beta"]))
        sample = lib.core.Dataset.from_indices(domain(8), h["sample"])
        return SimpleNamespace(
            inputs=inputs,
            pairs=[(law(p["w1"]), law(p["w2"]), p["tape_seed"]) for p in inputs["coupling_pairs"]],
            marginals=[(law(m["w"]), m["tape_seed"]) for m in inputs["marginal_laws"]],
            nfl_pairs=[(law(p["w1"]), law(p["w2"])) for p in inputs["nfl_pairs"]],
            grid=grid,
            hist_k=k,
            sample=sample,
            sample_freqs=np.bincount(h["sample"], minlength=8) / len(h["sample"]),
        )

    @staticmethod
    def run(lib, st):
        c = lib.calls
        i = st.inputs
        n = i["tapes"]
        h = i["hist"]
        a = i["audit"]
        estimates = [c.disagreement_estimate(q1, q2, trials=n, seed=s) for q1, q2, s in st.pairs]
        marginals = [c.coupled_marginal_counts(q, trials=n, seed=s) for q, s in st.marginals]
        witnesses = [c.nfl_witness(p, q1, q2) for q1, q2 in st.nfl_pairs for p in st.grid]
        hists = [c.private_histogram(st.sample, h["epsilon"], h["delta"], seed=s).values
                 for s in h["noise_seeds"]]
        audit = c.audit_histogram_dp(i["audit_k"], i["audit_domain"], a["epsilon"],
                                     a["delta"], tail=a["tail"])
        return estimates, marginals, witnesses, hists, audit

    @staticmethod
    def judge(st, result) -> Judgement:
        estimates, marginals, witnesses, hists, audit = result
        i = st.inputs
        n = i["tapes"]
        problems = []

        excess = -1.0
        for (q1, q2, _), est in zip(st.pairs, estimates):
            tv = 0.5 * float(np.abs(q1.weights - q2.weights).sum())
            bound = 2.0 * tv / (1.0 + tv)
            margin = 3.0 * math.sqrt(max(bound * (1.0 - bound), 0.0) / n)
            excess = max(excess, est - (bound + margin))
        if not excess <= 1e-12:
            problems.append(f"coupling disagreement exceeds its bound by {excess}")
        min_p = 1.0
        for (q, _), counts in zip(st.marginals, marginals):
            expected = q.weights * n
            min_p = min(min_p, chi2_sf(float(((counts - expected) ** 2 / expected).sum()),
                                       q.domain.size - 1))
        if not min_p > 0.001:
            problems.append(f"coupled marginal chi-square p = {min_p}")

        p_values = np.array([w.p_value for w in witnesses])
        thresholds = np.array([w.threshold for w in witnesses])
        shortfall = float((thresholds - p_values).max())
        if not shortfall <= 1e-12:
            problems.append(f"NFL witness short of its threshold by {shortfall}")

        h = i["hist"]
        values = np.array(hists)
        hits = int((np.abs(values - st.sample_freqs).max(axis=1) <= h["eta"]).sum())
        if st.hist_k != h["expected_k"] or st.sample.size != h["expected_k"]:
            problems.append(f"histogram k = {st.hist_k}, expected {h['expected_k']}")
        if hits < 0.88 * len(hists):
            problems.append(f"histogram accurate in {hits}/{len(hists)} runs")

        if not audit.worst_beta <= audit.delta:
            problems.append(f"audit worst beta {audit.worst_beta} > delta {audit.delta}")

        digest = _digest(
            _floats(estimates),
            np.concatenate(marginals).astype(np.int64).tobytes(),
            "\n".join(w.symbol for w in witnesses).encode(),
            _floats(p_values), _floats(thresholds),
            values.tobytes(),
            repr((audit.worst_beta, audit.worst_pair, audit.pairs_checked)).encode(),
        )
        work = {"tapes": n * (len(estimates) + len(marginals)),
                "witnesses": len(witnesses), "histograms": len(hists),
                "audit_pairs": audit.pairs_checked}
        return Judgement(problems, digest, work)


class CliHist:
    """`stability-lab hist` run in-process on a seeded Zipf corpus."""

    name = "cli_hist"

    @staticmethod
    def build(lib, inputs: dict) -> SimpleNamespace:
        argv = ["hist", "--config", inputs["config"], "--seed", str(inputs["cli_seed"]),
                "--out", inputs["report"]]
        return SimpleNamespace(inputs=inputs, argv=argv)

    @staticmethod
    def run(lib, st):
        return lib.calls.cli_main(st.argv)

    @staticmethod
    def judge(st, code) -> Judgement:
        with open(st.inputs["report"], "r", encoding="utf-8") as fh:
            report = json.load(fh)
        report.pop("wall_clock_s", None)
        problems = []
        if code != 0:
            problems.append(f"exit code {code}")
        k = report.get("payload", {}).get("k")
        if k != st.inputs["tokens"]:
            problems.append(f"payload k = {k}, expected {st.inputs['tokens']} tokens")
        digest = _digest(json.dumps(report, sort_keys=True).encode())
        return Judgement(problems, digest, {"tokens": st.inputs["tokens"]})


WORKLOADS = {w.name: w for w in (Prop1, OracleChecks, CliHist)}
