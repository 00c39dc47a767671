"""Seed handling: one root seed per run, stream-split per module.

Each module draws from its own independent stream derived from the run
seed and a stable per-module key, so adding or reordering stages never
perturbs the randomness seen by the others.
"""

from __future__ import annotations

import zlib

import numpy as np

from .config import check_seed


def module_rng(seed: int, module: str) -> np.random.Generator:
    """Return the deterministic generator for ``module`` under ``seed``.

    The module name is hashed with CRC-32 so the stream depends only on
    the (seed, name) pair, not on call order. A negative seed is a ConfigError.
    """
    check_seed(seed)
    key = zlib.crc32(module.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([int(seed), key]))
