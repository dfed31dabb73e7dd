"""Deterministic RNG streams.

All randomness in the package derives from a single root seed. Independent
streams are drawn from the counter-based 64-bit Philox generator, keyed by
the root seed plus an integer path that identifies the consumer, e.g.
``stream(root, trial, side)``, which one fragment side's variants draw
from in turn. Equal (root, path) pairs always yield the same stream;
distinct paths yield statistically independent streams. Path derivation
uses numpy's SeedSequence spawn keys: stable across processes and platforms.
"""
from __future__ import annotations

import numpy as np


def check_seed(*values) -> None:
    """Raise ValueError unless every value is a Python or numpy integer of
    at least 0: a bool, a float or a negative value is rejected."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError("a seed or trial must be an integer of at least 0, got %r" % (v,))


def stream(root_seed: int, *path: int) -> np.random.Generator:
    """Return the Philox generator for the given (root seed, path) pair,
    whose every entry check_seed accepts."""
    check_seed(root_seed, *path)
    ss = np.random.SeedSequence(int(root_seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))
