"""Seeded fan-out of independent draws over worker processes.

fan_out cuts n_items into fixed-size blocks. Block b draws from a
counter-based Philox generator keyed by the 128-bit value (seed, b) (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so its stream
depends on nothing but the seed and its own index. Each worker runs one
contiguous range of blocks and the results come back in block order, so a
caller that reduces them in that order gets bit-identical results for any
worker count. Underneath is map_blocks, which runs any function of a block
index that way, over one process pool per call.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

SEED_LIMIT = 1 << 64


def check_seed(seed: int) -> int:
    """Return seed if it fits one 64-bit key word, else raise ValueError."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def block_rng(seed: int, block: int) -> np.random.Generator:
    """The generator of one block: Philox keyed by (seed, block)."""
    # a list key would be cast through float64, merging nearby large seeds
    key = np.array([check_seed(seed), block], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def map_blocks(fn, args: tuple, n_blocks: int, workers: int) -> list:
    """[fn(*args, b) for b in range(n_blocks)], in block order.

    One pool serves the whole call; the blocks go out in at most `workers`
    contiguous chunks. With workers == 1 or fewer than two blocks everything runs in this
    process and no pool starts; otherwise fn and args are pickled, so fn must
    be a module-level function.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1 or n_blocks < 2:
        return [fn(*args, b) for b in range(n_blocks)]
    workers = min(workers, n_blocks)
    # the default (fork) start method lets workers inherit this process's
    # caches, such as the stabilizer-state enumeration
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(partial(fn, *args), range(n_blocks),
                             chunksize=-(-n_blocks // workers)))


def fan_out(fn, args: tuple, n_items: int, block_size: int, seed: int,
            workers: int) -> list:
    """[fn(*args, count, block_rng(seed, b)) for each block b], in block order,
    spread over `workers` processes by map_blocks.

    Block b covers items [b * block_size, min((b + 1) * block_size, n_items)).
    """
    if n_items < 0:
        raise ValueError(f"sample count must be at least 0, got {n_items}")
    check_seed(seed)
    return map_blocks(_seeded_block, (fn, args, n_items, block_size, seed),
                      -(-n_items // block_size), workers)


def _seeded_block(fn, args: tuple, n_items: int, block_size: int, seed: int,
                  b: int):
    count = min(block_size, n_items - b * block_size)
    return fn(*args, count, block_rng(seed, b))
