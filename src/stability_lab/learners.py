"""Toy learners and corpus ingestion for experiments and the CLI."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import (
    ContentDomain,
    Dataset,
    DiscreteDistribution,
    _index_corpus,
    _require_domain,
    _require_nonnegative,
    _row_counts,
    make_distribution,
)
from .errors import EmptyDataset
from .transform import Learner


def learner_empirical(smoothing: float = 0.0) -> Learner:
    """Additive-smoothing frequency learner.

    train(S) puts (count(z) + smoothing) / (|S| + smoothing * |Z|) on each
    symbol; smoothing 0 is the pure memorizer, large smoothing approaches
    uniform. Ignores its seed (the map is deterministic in the data).
    Raises ValueError unless smoothing is a finite number >= 0.
    """
    _require_nonnegative("smoothing", smoothing)

    def train_shards(
        domain: ContentDomain, shard_indices: np.ndarray, train_seed: int
    ) -> np.ndarray:
        # One bincount counts every shard at once; train is its one-row call.
        if shard_indices.shape[1] == 0 and smoothing == 0:
            raise EmptyDataset("the unsmoothed empirical learner needs data")
        counts = _row_counts(shard_indices, domain.size).astype(np.float64) + smoothing
        return counts / counts.sum(axis=1, keepdims=True)

    def train(dataset: Dataset, seed: int) -> DiscreteDistribution:
        weights = train_shards(dataset.domain, dataset.indices[None, :], seed)[0]
        return make_distribution(dataset.domain, weights)

    return Learner(
        name=f"empirical(smoothing={smoothing:g})", train=train, train_shards=train_shards
    )


def learner_constant(q: DiscreteDistribution) -> Learner:
    """Learner that ignores its input's items and always outputs q; a
    dataset on another domain raises DomainMismatch, in train as in
    train_shards."""

    def train(dataset: Dataset, seed: int) -> DiscreteDistribution:
        _require_domain(dataset.domain, q)
        return q

    def train_shards(
        domain: ContentDomain, shard_indices: np.ndarray, train_seed: int
    ) -> np.ndarray:
        _require_domain(domain, q)
        return np.broadcast_to(q.weights, (shard_indices.shape[0], domain.size))

    return Learner(name="constant", train=train, train_shards=train_shards)


def ingest_corpus(
    path: str | Path, tokenization: str = "line"
) -> tuple[ContentDomain, Dataset]:
    """Read a corpus file into (domain, dataset).

    "line" treats each non-blank line as one token; "whitespace" splits on
    any whitespace. A leading UTF-8 byte-order mark is dropped. The domain
    is the sorted set of distinct tokens and the dataset keeps the token
    sequence in file order. A file without tokens raises EmptyCorpus.
    """
    dataset = _index_corpus(path, tokenization)
    return dataset.domain, dataset
