import hashlib
import time

import numpy as np
import pytest

from conftest import domain
from stability_lab import derive_seed, new_tape
from stability_lab.util import _derive_seeds


class TestDeriveSeed:
    def test_frozen_values(self):
        # pinned so seed derivation stays stable across platforms/releases
        assert derive_seed(0, "x", 0) == 7060657385327961287
        assert derive_seed(12345, "tape", 7) == 2523506291143471698

    def test_distinct_across_labels_and_indices(self):
        seeds = {
            derive_seed(1, label, i)
            for label in ("a", "b", "tape", "noise")
            for i in range(100)
        }
        assert len(seeds) == 400

    def test_index_defaults_to_zero(self):
        assert derive_seed(9, "lab") == derive_seed(9, "lab", 0)

    def test_root_and_index_read_as_integers(self):
        assert derive_seed(True, "x", True) == derive_seed(1, "x", 1)
        assert derive_seed(False, "x") == derive_seed(0, "x")
        assert derive_seed(np.int64(12345), "tape", np.uint8(7)) == 2523506291143471698
        assert derive_seed(np.uint64(2**64 - 1), "x", np.int32(-3)) == derive_seed(
            2**64 - 1, "x", -3
        )

    @pytest.mark.parametrize("root, index", [(1.0, 0), (1, 2.0), (np.float64(3.0), 0), (1, 0.5)])
    def test_float_root_or_index_raises(self, root, index):
        with pytest.raises(TypeError):
            derive_seed(root, "x", index)


class TestDeriveSeeds:
    ROOTS = [0, 1, -3, 2**64 - 1, True, np.int64(-7), np.uint64(2**64 - 1), 10**40]
    INDICES = [0, 1, -3, 2**64 - 1, True, False, np.int64(-3), np.uint64(2**64 - 1), 5, 2]

    @pytest.mark.parametrize("label", ["tape", "noise", "", "bruit/é—ß", "草"])
    def test_stream_equals_derive_seed(self, label):
        for root in self.ROOTS:
            stream = list(_derive_seeds(root, label, self.INDICES))
            assert stream == [derive_seed(root, label, i) for i in self.INDICES]
            # the payload: the decimal root and index around the UTF-8 label
            payloads = (f"{int(root)}/{label}/{int(i)}".encode() for i in self.INDICES)
            assert stream == [
                int.from_bytes(hashlib.blake2b(b, digest_size=8).digest(), "little")
                for b in payloads
            ]

    def test_float_index_raises_when_reached(self):
        seeds = _derive_seeds(3, "x", [0, 1.0])
        assert next(seeds) == derive_seed(3, "x", 0)
        with pytest.raises(TypeError):
            next(seeds)
        with pytest.raises(TypeError):
            next(_derive_seeds(3.0, "x", [0]))

    def test_lazy(self):
        start = time.perf_counter()
        first = next(_derive_seeds(12345, "tape", range(10**12)))
        assert time.perf_counter() - start < 1.0
        assert first == derive_seed(12345, "tape", 0)


class TestTapeDeterminism:
    def test_frozen_variates(self):
        t = new_tape(domain(3), 42)
        assert np.allclose(
            t.variates,
            [1.069174108948, 0.022473870422, 0.806119092329],
            atol=1e-12,
        )

