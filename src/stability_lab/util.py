"""Seed derivation.

Every randomized operation in this package takes an explicit seed; child
seeds are derived by hashing (root seed, component label, index) so that
trial fan-out is deterministic and collision-free.
"""

from __future__ import annotations

import hashlib
import operator


def derive_seed(root: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from a root seed, a label, and an index.

    Uses blake2b over the textual triple, so the derivation is stable
    across platforms and runs. `root` and `index` are read as integers
    (operator.index), so True derives as 1, a numpy integer as the equal
    int, and a float raises TypeError. This is the one-index case of
    _derive_seeds.
    """
    return next(_derive_seeds(root, label, (index,)))


def _derive_seeds(root: int, label: str, indices):
    """Lazily yield derive_seed(root, label, i) for each i of `indices`.

    The hashed payload is b"root/label/index". Its root/label/ prefix is
    hashed once, and each index copies that blake2b state and adds its
    decimal digits. The root is read when the first seed is drawn and each
    index when its seed is, so a float raises TypeError there.
    """
    prefix = hashlib.blake2b(f"{operator.index(root)}/{label}/".encode(), digest_size=8)
    for index in indices:
        h = prefix.copy()
        h.update(b"%d" % operator.index(index))
        yield int.from_bytes(h.digest(), "little")
