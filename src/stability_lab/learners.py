"""Toy learners and corpus ingestion for experiments and the CLI."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import (
    ContentDomain,
    Dataset,
    DiscreteDistribution,
    _line_tokens,
    make_distribution,
)
from .errors import EmptyCorpus, EmptyDataset
from .transform import Learner


def learner_empirical(smoothing: float = 0.0) -> Learner:
    """Additive-smoothing frequency learner.

    train(S) puts (count(z) + smoothing) / (|S| + smoothing * |Z|) on each
    symbol; smoothing 0 is the pure memorizer, large smoothing approaches
    uniform. Ignores its seed (the map is deterministic in the data).
    """
    if smoothing < 0:
        raise ValueError("smoothing must be >= 0")

    def train(dataset: Dataset, seed: int) -> DiscreteDistribution:
        if dataset.size == 0 and smoothing == 0:
            raise EmptyDataset("the unsmoothed empirical learner needs data")
        counts = dataset.counts().astype(np.float64) + smoothing
        return make_distribution(dataset.domain, counts / counts.sum())

    return Learner(name=f"empirical(smoothing={smoothing:g})", train=train)


def learner_constant(q: DiscreteDistribution) -> Learner:
    """Learner that ignores its input entirely and always outputs q."""

    def train(dataset: Dataset, seed: int) -> DiscreteDistribution:
        return q

    return Learner(name="constant", train=train)


def ingest_corpus(
    path: str | Path, tokenization: str = "line"
) -> tuple[ContentDomain, Dataset]:
    """Read a corpus file into (domain, dataset).

    "line" treats each non-blank line as one token; "whitespace" splits on
    any whitespace. The domain is the sorted set of distinct tokens and
    the dataset keeps the token sequence in file order.
    """
    if tokenization not in ("line", "whitespace"):
        raise ValueError(f"unknown tokenization {tokenization!r}")
    text = Path(path).read_text(encoding="utf-8")
    tokens = _line_tokens(text) if tokenization == "line" else text.split()
    if not tokens:
        raise EmptyCorpus(f"no tokens found in {path}")
    domain = ContentDomain(tuple(sorted(set(tokens))))
    return domain, Dataset(domain, tokens)
