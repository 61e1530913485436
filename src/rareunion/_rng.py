"""Random-stream plumbing: derived substreams and stable cell seeds.

Every Monte Carlo routine partitions its replicates into fixed-size chunks
and derives one generator per chunk from the user seed and the chunk
coordinates, so results are identical no matter how chunks are scheduled.
"""

from __future__ import annotations

import hashlib

import numpy as np

CHUNK_SIZE = 1 << 16

_MASK64 = (1 << 64) - 1


def derive_generator(seed: int, *key: int) -> np.random.Generator:
    """Generator for substream ``key`` of the stream ``seed``: SFC64 seeded
    by ``SeedSequence`` under the spawn key ``key``.  SFC64's 64-bit counter
    keeps distinct seeds from overlapping within 2^64 draws, far beyond the
    few million values one chunk draws, and its normals, exponentials and
    uniforms are cheaper to draw than Philox's."""
    ss = np.random.SeedSequence(entropy=int(seed) & _MASK64, spawn_key=tuple(key))
    return np.random.Generator(np.random.SFC64(ss))


def iter_chunks(total: int):
    """Yield (chunk_index, count) covering ``total`` replicates in order,
    ``CHUNK_SIZE`` at a time."""
    index = 0
    done = 0
    while done < total:
        count = min(CHUNK_SIZE, total - done)
        yield index, count
        done += count
        index += 1


def stable_cell_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed derived from a master seed and labels.

    Used by the experiment runner so that adding an estimator or a grid
    point to a configuration does not perturb the seeds of other cells.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(int(master_seed)).encode())
    for part in parts:
        h.update(b"|")
        if isinstance(part, float):
            h.update(repr(part).encode())
        else:
            h.update(str(part).encode())
    return int.from_bytes(h.digest(), "big") & ((1 << 63) - 1)
