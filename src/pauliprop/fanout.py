"""Seeded fan-out of independent draws over worker processes.

fan_out cuts n_items into fixed-size blocks. Block b draws from a
counter-based Philox generator keyed by the 128-bit value (seed, b) (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so its stream
depends on nothing but the seed and its own index. Each worker runs one
contiguous range of blocks and the results come back in block order, so a
caller that reduces them in that order gets bit-identical results for any
worker count. Underneath is map_blocks, which runs any function of a block
index that way.

One process pool serves every map_blocks call of a process, and it never
has more workers than the CPUs this process may use. It is forked at
the first call that needs workers, so the workers keep this process's module
state of that moment: caches filled before it are shared, and a cache filled
or a name patched after it is not seen by the workers. A call that needs a
pool of another size shuts the old pool down first; a pool that broke
(a worker died) is dropped once the call has raised BrokenProcessPool, so the
next call starts a fresh one. The workers end with the interpreter. Each pool
start logs one DEBUG record on the "pauliprop" logger whose `pool` attribute
holds `workers` and `start_s`, the seconds until the new pool answered.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np

SEED_LIMIT = 1 << 64

_log = logging.getLogger("pauliprop")
_pool = None  # (size, ProcessPoolExecutor) shared by every map_blocks call


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

    The blocks go out in contiguous chunks to the process's shared pool of
    min(workers, n_blocks, usable_cpus()) processes (see the module
    docstring). When that is one, everything runs in this process and no pool
    is used; otherwise fn and args are pickled, so fn must be a module-level
    function. Call it from one thread at a time.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    workers = min(workers, n_blocks, usable_cpus())
    if workers < 2:
        return [fn(*args, b) for b in range(n_blocks)]
    pool = _shared_pool(workers)
    try:
        return list(pool.map(partial(fn, *args), range(n_blocks),
                             chunksize=-(-n_blocks // workers)))
    except BrokenProcessPool:
        _drop_pool()
        raise


def usable_cpus() -> int:
    """The CPUs this process may run on, which caps every pool: forking more
    workers than that only makes them queue."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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


def _shared_pool(workers: int) -> ProcessPoolExecutor:
    global _pool
    if _pool is not None and _pool[0] != workers:
        _drop_pool()
    if _pool is None:
        t0 = time.perf_counter()
        # fork, so that the workers inherit this process's caches, such as
        # the stabilizer-state enumeration
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        pool.submit(int).result()  # forks every worker now, so start_s covers them
        _pool = (workers, pool)
        start = {"workers": workers, "start_s": time.perf_counter() - t0}
        _log.debug("pool start: %(workers)d workers in %(start_s).3f s", start,
                   extra={"pool": start})
    return _pool[1]


def _drop_pool():
    """Shut the shared pool down and wait for its workers to exit."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown()
