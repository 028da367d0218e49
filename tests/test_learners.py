import numpy as np
import pytest

from conftest import direct_empirical_weights, dist, domain
from stability_lab import (
    ContentDomain,
    Dataset,
    derive_seed,
    ingest_corpus,
    learner_constant,
    learner_empirical,
    make_distribution,
)
from stability_lab.errors import DomainMismatch, EmptyCorpus, EmptyDataset


class TestLearnerEmpirical:
    def test_counts(self):
        s = Dataset(domain(2), ["z0", "z0", "z1"])
        q = learner_empirical(0.0).train(s, 0)
        assert np.allclose(q.weights, [2 / 3, 1 / 3], atol=1e-15)

    def test_smoothing_by_hand(self):
        s = Dataset(domain(2), ["z0"])
        q = learner_empirical(1.0).train(s, 0)
        assert np.allclose(q.weights, [2 / 3, 1 / 3], atol=1e-15)

    def test_heavy_smoothing_tends_uniform(self):
        s = Dataset(domain(2), ["z0", "z0", "z0"])
        q = learner_empirical(1e6).train(s, 0)
        assert np.abs(q.weights - 0.5).max() <= 1e-3

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            learner_empirical(-0.5)

    @pytest.mark.parametrize("smoothing", [float("nan"), float("inf"), -1.0])
    def test_smoothing_must_be_finite_and_non_negative(self, smoothing):
        with pytest.raises(ValueError, match="smoothing"):
            learner_empirical(smoothing)

    def test_empty_unsmoothed_rejected(self):
        with pytest.raises(EmptyDataset):
            learner_empirical(0.0).train(Dataset(domain(2), []), 0)

    def test_deterministic_and_seed_free(self):
        s = Dataset(domain(3), ["z0", "z2", "z2"])
        learner = learner_empirical(0.5)
        assert learner.train(s, 1) == learner.train(s, 999)


    @pytest.mark.parametrize("size", [0, 1, 2, 17, 300, 5000])
    @pytest.mark.parametrize("width", [1, 3, 8, 50])
    def test_one_row_call_matches_direct_formula(self, size, width):
        rng = np.random.default_rng(size * 100 + width)
        data = Dataset.from_indices(domain(width), rng.integers(0, width, size))
        for smoothing in (0.0, 0.5, 1.0, 3.7):
            if size == 0 and smoothing == 0.0:
                continue
            q = learner_empirical(smoothing).train(data, 0)
            assert q.weights.tobytes() == direct_empirical_weights(data, smoothing).tobytes()


class TestLearnerConstant:
    def test_ignores_input(self):
        q = dist([0.25, 0.75])
        learner = learner_constant(q)
        for items in (["z0"], ["z1", "z1"], ["z0", "z1", "z0"]):
            assert learner.train(Dataset(domain(2), items), 0) is q


class TestTrainShards:
    """train_shards row i must equal the scalar train on shard i, bit for bit."""

    def assert_rows_match(self, learner, d, shard_indices, train_seed=5):
        batch = learner.train_shards(d, shard_indices, train_seed)
        assert batch.shape == (shard_indices.shape[0], d.size)
        for i, idx in enumerate(shard_indices):
            shard = Dataset.from_indices(d, idx)
            q = learner.train(shard, derive_seed(train_seed, "shard-train", i))
            assert np.array_equal(batch[i], q.weights)

    # sizes above 8 sum each row with numpy's unrolled pairwise reduction
    @pytest.mark.parametrize("size", [2, 8, 13, 40])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1, 0.5, 1.0, 1e6])
    def test_empirical(self, smoothing, size):
        rng = np.random.default_rng(size)
        for m in (1, 7, 50):
            indices = rng.integers(0, size, size=(23, m))
            self.assert_rows_match(learner_empirical(smoothing), domain(size), indices)

    def test_empirical_empty_unsmoothed_rejected(self):
        with pytest.raises(EmptyDataset):
            learner_empirical(0.0).train_shards(
                domain(2), np.zeros((3, 0), dtype=np.int64), 0
            )

    def test_constant(self):
        q = dist([0.1, 0.0, 0.6, 0.3])
        indices = np.random.default_rng(2).integers(0, 4, size=(11, 3))
        self.assert_rows_match(learner_constant(q), domain(4), indices)

    def test_constant_rejects_foreign_domain(self):
        q = make_distribution(ContentDomain(("x", "y")), [0.5, 0.5])
        with pytest.raises(DomainMismatch):
            learner_constant(q).train_shards(
                ContentDomain(("a", "b")), np.zeros((3, 2), dtype=np.int64), 0
            )


class TestIngestCorpus:
    def test_line_mode(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a\nb\na\n")
        dom, data = ingest_corpus(path, "line")
        assert dom.symbols == ("a", "b")
        assert data.items == ("a", "b", "a")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a\n\n  \nb\n")
        _, data = ingest_corpus(path, "line")
        assert data.items == ("a", "b")

    def test_whitespace_mode(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("the cat  sat\nthe mat\n")
        dom, data = ingest_corpus(path, "whitespace")
        assert dom.symbols == ("cat", "mat", "sat", "the")
        assert data.items == ("the", "cat", "sat", "the", "mat")

    def test_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(EmptyCorpus):
            ingest_corpus(path, "line")

    def test_deterministic(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("x\ny\nx\n")
        assert ingest_corpus(path, "line")[1] == ingest_corpus(path, "line")[1]

    def test_unknown_mode(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("a\n")
        with pytest.raises(ValueError):
            ingest_corpus(path, "bytes")

    @pytest.mark.parametrize("mode", ["line", "whitespace"])
    def test_byte_order_mark_is_dropped(self, tmp_path, mode):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"\xef\xbb\xbfa\nb\na\n")
        dom, data = ingest_corpus(path, mode)
        assert dom.symbols == ("a", "b")
        assert list(data.counts()) == [2, 1]
