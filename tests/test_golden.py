"""Golden bytes: fixed seeds and configs must keep giving these digests.

Each entry is the SHA-256 of a payload's `json.dumps(payload,
sort_keys=True)` or of an array's bytes. Every input is written out here,
from arithmetic rather than a random generator, so the digests pin the
library alone. Changing a digest changes behaviour: the change that does
it updates the entry and says why in CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

from conftest import dist, domain
from stability_lab import (
    TransformConfig,
    estimate_premise_alpha,
    learner_constant,
    learner_empirical,
    race_counts,
    transform_bound_experiment,
)
from stability_lab import coupling
from stability_lab.cli import main
from stability_lab.dp import _release_rows

D8 = dist([0.25, 0.20, 0.15, 0.12, 0.10, 0.08, 0.06, 0.04])

GOLDEN = {
    "cli:tv": "dc32efcbdeaebb04f58a0d3f4fa562fb1f426a1105b8f872104fe35777bb2f4b",
    "cli:dp-beta": "97e1ffb4382aaba12047d93e1609d3e1e19c60896b864938e58edbe8b1bc21a4",
    "cli:naf-check": "d398423daaa5da64640cecc89f2ba8f7c18aad3bd0783e9a090f7cfbf28c57d0",
    "cli:nfl-check": "594c36567b291ea47c5126227f5039188c794b2f6c56ee9fffd0b355d9275c49",
    "cli:censorship": "d50d70ae1d1289d45a607949c93d331d8b875a0b9aa913772caa5210781790d3",
    "cli:hist": "3782ce7480b974d9b1baa7436ae71e4fecfed08e214189c34825d7ec0d348194",
    "cli:transform": "58f8f2a689d564fd8282527ed6ece47435ac474f69721982f51ec14b36f9814f",
    "cli:prop1": "e4a799c1610f2e503b6b67695fe713fe5d675066848d3c76cc9d6a4b5c0f4568",
    "cli:ingest": "3615a52ad0afe2376e9087d12b733b1677e88be7df212639e4753e1fe19824ff",
    "criterion_6": "b46bdff011ff8c0f4f77d5f2742cd4de6d8a3060268c9bb79fe654f817e4254b",
    "race_counts:rank": "198b45b01537f48dab9203986292e7c143380656c4b72c39bb76b33e5df4e59f",
    "race_counts:tournament": "ee69c50f2dd9532119132c2e1911de40b80b50eeb5002a1e6a450e55a551bb2c",
    "release_rows:0.5": "848537462da39fcd1da56f0dff7e15a3052721e9fe47713778aca8a272604be5",
    "release_rows:1.0": "e72a2cee4644578c3ffdb5db914d43138456b3a72096e5776c70a3b7f0ae0773",
}
PREMISE_HEX = "0x1.5bfbc34426228p-3"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_digest(payload: dict) -> str:
    return sha256(json.dumps(payload, sort_keys=True).encode())


def law(symbols, weights) -> dict:
    return {"symbols": symbols, "weights": weights}


AB = ["a", "b", "c", "d", "e"]


def lines(count: int, size: int) -> str:
    """`count` lines over symbols s0..s{size-1}: the squares of a golden-ratio
    Weyl sequence, so low symbols are the most frequent."""
    return "".join(f"s{int(size * (i * 0.6180339887498949 % 1.0) ** 2)}\n" for i in range(count))


def cli_configs(tmp_path) -> dict:
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(lines(2000, 24))
    private = tmp_path / "private.txt"
    private.write_text(lines(TransformConfig(2.0, 0.05, 0.3, 3).m_priv, 8))
    p = law(AB, [0.4, 0.25, 0.15, 0.12, 0.08])
    q = law(AB, [0.1, 0.2, 0.3, 0.25, 0.15])
    r = law(AB, [0.3, 0.3, 0.2, 0.1, 0.1])
    return {
        "tv": {"q1": p, "q2": q},
        "dp-beta": {"p": p, "p_prime": q, "alpha": 0.3, "alpha_grid": [0.0, 0.5, 1.0]},
        "naf-check": {
            "model": p,
            "safe_models": [{"id": "doc1", "model": q}, {"id": "doc2", "model": r}],
            "alpha": 0.5,
        },
        "nfl-check": {"model": r, "q1": p, "q2": q},
        "censorship": {"safe_models": [p, q, r], "alpha": 0.5},
        "hist": {"dataset": str(corpus), "epsilon": 1.0, "delta": 1e-3, "seed": 7},
        "transform": {
            "dataset": str(private),
            "domain": {"symbols": [f"s{i}" for i in range(8)]},
            "learner": {"kind": "empirical", "smoothing": 1.0},
            "epsilon": 2.0,
            "delta": 0.05,
            "eta": 0.3,
            "m": 3,
            "seed": 7,
            "tape_seed": 3,  # a tape on which two symbols win shards
        },
        "prop1": {
            "data_distribution": law(["a", "b", "c", "d"], [0.4, 0.3, 0.2, 0.1]),
            "learner": {"kind": "empirical", "smoothing": 1.0},
            "epsilon": 2.0,
            "delta": 0.05,
            "eta": 0.3,
            "m": 3,
            "outer_trials": 2,
            "inner_trials": 15,
            "premise_trials": 20,
            "seed": 9,
        },
        "ingest": {"corpus": str(corpus)},
    }


@pytest.mark.parametrize("subcommand", [k.split(":")[1] for k in GOLDEN if k.startswith("cli:")])
def test_cli_payload(tmp_path, subcommand):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cli_configs(tmp_path)[subcommand]))
    out = tmp_path / "report.json"
    assert main([subcommand, "--config", str(config), "--out", str(out)]) in (0, 2)
    assert payload_digest(json.loads(out.read_text())["payload"]) == GOLDEN[f"cli:{subcommand}"]


def test_criterion_6_report():
    config = TransformConfig.from_params(epsilon=1.0, delta=1e-6, eta=0.05, m=50)
    report = transform_bound_experiment(
        learner_empirical(1.0), D8, config, outer_trials=20, inner_trials=300, seed=1006,
        premise_trials=200,
    )
    assert payload_digest(report.to_json_obj()) == GOLDEN["criterion_6"]


def test_premise_alpha_has_no_noise():
    # The premise estimate draws no histogram noise, so these bits must
    # not move when the noise draw does.
    assert estimate_premise_alpha(learner_empirical(1.0), D8, 50, 200, 17).hex() == PREMISE_HEX
    assert estimate_premise_alpha(learner_constant(D8), D8, 50, 200, 17) == 0.0


def rank_weights() -> np.ndarray:
    """3170 models smoothed from 50 counts over 8 symbols, as
    learner_empirical(1.0) trains them: few distinct weights per column,
    the rank race's case."""
    counts = np.empty((3170, 8))
    counts[:, :7] = (np.arange(3170)[:, None] * np.arange(3, 10) + np.arange(7) ** 2) % 8
    counts[:, 7] = 50 - counts[:, :7].sum(axis=1)
    return (counts + 1.0) / 58.0


def tournament_weights() -> np.ndarray:
    """300 models over 200 symbols with distinct weights: the tournament's case."""
    w = 1.0 + (np.arange(300)[:, None] * 131 + np.arange(200) * 17) % 1009
    return w / w.sum(axis=1, keepdims=True)


@pytest.mark.parametrize(
    "kernel, weights", [("rank", rank_weights), ("tournament", tournament_weights)]
)
def test_race_counts(monkeypatch, kernel, weights):
    used = set()

    def spy(name):
        real = getattr(coupling, name)

        def counted(*args, **kwargs):
            used.add(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(coupling, name, counted)

    spy("_rank_chunk")
    spy("_tournament")
    w = weights()
    counts = race_counts(domain(w.shape[1]), range(1000, 1100), w)
    assert used == {"_rank_chunk" if kernel == "rank" else "_tournament"}
    assert sha256(counts.astype(np.int64).tobytes()) == GOLDEN[f"race_counts:{kernel}"]


def release_counts() -> np.ndarray:
    """Rows of 1, 8 and 20 present symbols over 24, three of each, with
    counts by formula (k differs row to row)."""
    counts = np.zeros((9, 24), dtype=np.int64)
    for i, present in enumerate([1, 8, 20] * 3):
        cols = (np.arange(present) * 5 + i) % 24
        counts[i, cols] = 3 + (np.arange(present) * 7 + i * 11) % 40
    return counts


@pytest.mark.parametrize("epsilon", [0.5, 1.0])
def test_release_rows(epsilon):
    counts = release_counts()
    assert sorted(np.count_nonzero(counts, axis=1).tolist()) == [1] * 3 + [8] * 3 + [20] * 3
    seeds = [0, 1, 7, 2**32, 2**63 - 1, 2**63, 2**64 - 1, 12345, 987654321]
    values = _release_rows(counts, epsilon, 1e-3, seeds)
    assert sha256(values.tobytes()) == GOLDEN[f"release_rows:{epsilon}"]
