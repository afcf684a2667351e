"""Shared test helpers (fixtures live in conftest.py)."""

import numpy as np

from cfdetox.data import EncodedBatch, Example


def make_batch(rng: np.random.Generator, n: int = 2, vocab_size: int = 12,
               lx: int = 6, lb: int = 4) -> EncodedBatch:
    """Random well-formed encoded batch: every row keeps >= 1 active slot."""
    x_ids = rng.integers(1, vocab_size, (n, lx))
    b_ids = rng.integers(1, vocab_size, (n, lb))
    x_mask = np.ones((n, lx))
    b_mask = np.ones((n, lb))
    for i in range(n):
        x_keep = int(rng.integers(1, lx + 1))
        b_keep = int(rng.integers(1, lb + 1))
        x_mask[i, x_keep:] = 0
        b_mask[i, b_keep:] = 0
    x_ids[x_mask == 0] = 0
    b_ids[b_mask == 0] = 0
    return EncodedBatch(
        x_ids=x_ids, b_ids=b_ids, x_mask=x_mask, b_mask=b_mask,
        labels=rng.integers(0, 2, n),
    )


def examples_from(texts_labels) -> list[Example]:
    return [Example.from_text(t, y) for t, y in texts_labels]
