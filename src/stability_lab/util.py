"""Seeds: the one seed rule and seed derivation.

Every randomized operation in this package takes an explicit seed, read
by _seed_key as an integer mod 2**64; child seeds are derived by hashing
(root seed, component label, index) so that trial fan-out is
deterministic and collision-free.
"""

from __future__ import annotations

import hashlib
import operator

_U64_MASK = (1 << 64) - 1


def _seed_key(seed) -> int:
    """The seed as its 64-bit key: any Python or numpy integer, mod 2**64.

    The one read of a seed. So True is 1, -1 and 2**64 - 1 name one
    seed, and a float raises operator.index's TypeError."""
    return operator.index(seed) & _U64_MASK


def derive_seed(root: int, label: str, index: int = 0) -> int:
    """Derive a 64-bit child seed from a root seed, a label, and an index.

    Uses blake2b over the textual triple, so the derivation is stable
    across platforms and runs. The root is a seed, read by _seed_key (mod
    2**64); the index counts trials and is read as a plain integer
    (operator.index), so True derives as 1, a numpy integer as the equal
    int, and a float raises TypeError. This is the one-index case of
    _derive_seeds.
    """
    return next(_derive_seeds(root, label, (index,)))


def _derive_seeds(root: int, label: str, indices):
    """Lazily yield derive_seed(root, label, i) for each i of `indices`.

    The hashed payload is b"key/label/index", with the root's _seed_key.
    Its key/label/ prefix is hashed once, and each index copies that
    blake2b state and adds its decimal digits. The root is read when the
    first seed is drawn and each index when its seed is, so a float raises
    TypeError there.
    """
    prefix = hashlib.blake2b(f"{_seed_key(root)}/{label}/".encode(), digest_size=8)
    for index in indices:
        h = prefix.copy()
        h.update(b"%d" % operator.index(index))
        yield int.from_bytes(h.digest(), "little")
