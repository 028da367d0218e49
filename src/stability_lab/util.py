"""Seed derivation.

Every randomized operation in this package takes an explicit seed; child
seeds are derived by hashing (root seed, component label, index) so that
trial fan-out is deterministic and collision-free.
"""

from __future__ import annotations

import hashlib


def derive_seed(root: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from a root seed, a label, and an index.

    Uses blake2b over the textual triple, so the derivation is stable
    across platforms and runs.
    """
    payload = f"{root}/{label}/{index}".encode()
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "little")
