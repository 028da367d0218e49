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
    int, and a float raises TypeError.
    """
    payload = f"{operator.index(root)}/{label}/{operator.index(index)}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")
