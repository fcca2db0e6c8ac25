"""Seeded fan-out of independent draws over worker processes.

Every random stream of the package is block_rng(seed, *path): PCG64 seeded
by NumPy's SeedSequence from the key (seed, *path). Each element is a word in
[0, 2**64), fed in as two 32-bit words, so the input has a fixed width, and a
key of at least 2 elements fills the 128-bit pool without padding.
SeedSequence hashes the whole input: two distinct keys get the same state
only by a hash collision, about 2**-128 per pair, and its mixing is built so
that nearby keys (seed and seed + 1, block b and b + 1) give uncorrelated
streams. A counter-based generator keyed (seed, b) (Salmon et al., SC'11)
gives the same for two words by construction, each key being its own
bijection of the counter; the hash takes a key of any length, so a stream is
named by its whole path, such as (seed, t, b) for block b of term t of a
QAOA run. A plain int list or uint64 array would not do: SeedSequence
splits it into as few 32-bit words as each value needs and zero-pads a short
input, so (2**32 + 7, 0) would draw the stream of (7, 1), and (5, 0, 0) that
of (5, 0).

fan_out cuts n_items into fixed-size blocks; block b draws from
block_rng(*prefix, b), where the prefix is the caller's seed (an int, or a
tuple of ints), so its stream depends on nothing but the prefix and its own
index. Each worker runs one contiguous range of blocks and the results come
back in block order, so a caller that reduces them in that order gets
bit-identical results for any worker count. Underneath is map_blocks, which
runs any function of a block index that way.

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


def check_seed(seed: int | tuple) -> tuple:
    """The key prefix of seed, an int or a tuple of ints, as a tuple; raise
    ValueError unless every element is an integer (a Python or NumPy int,
    not a bool) that fits one 64-bit key word."""
    prefix = seed if isinstance(seed, tuple) else (seed,)
    for word in prefix:
        # a float or a bool would draw the stream of the int it equals
        if not is_integer(word):
            raise ValueError(f"seed elements must be integers, got {word!r} in seed {seed!r}")
    if not all(0 <= word < SEED_LIMIT for word in prefix):
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return prefix


def is_integer(value) -> bool:
    """Whether value is a Python or NumPy int and not a bool: the types with
    __index__ are those that operator.index takes."""
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


def block_rng(seed: int, *path: int) -> np.random.Generator:
    """The generator of the stream keyed (seed, *path), at least 2 elements:
    PCG64 seeded by SeedSequence from the key's fixed-width words."""
    key = check_seed((seed, *path))
    if len(key) < 2:
        raise ValueError("a stream key needs at least 2 elements")
    # little-endian 32-bit halves: a uint64 array would be split per value
    words = np.array(key, dtype="<u8").view("<u4")
    return np.random.default_rng(np.random.SeedSequence(words))


def map_blocks(fn, args: tuple, n_blocks: int, workers: int) -> list:
    """[fn(*args, b) for b in range(n_blocks)], in block order.

    The blocks go out in contiguous chunks to the process's shared pool of
    min(workers, n_blocks, usable_cpus()) processes (see the module
    docstring). When that is one, everything runs in this process and no pool
    is used; otherwise fn and args are pickled, so fn must be a module-level
    function. Call it from one thread at a time.
    """
    if not is_integer(workers) or workers < 1:
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")
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


def fan_out(fn, args: tuple, n_items: int, block_size: int, seed: int | tuple,
            workers: int) -> list:
    """[fn(*args, count, block_rng(*prefix, b)) for each block b], in block
    order, spread over `workers` processes by map_blocks. The prefix is seed,
    or (seed,) for an int.

    Block b covers items [b * block_size, min((b + 1) * block_size, n_items)).
    n_items must be an integer (is_integer: no bool, no float) of at least 0.
    """
    if not is_integer(n_items) or n_items < 0:
        raise ValueError(f"sample count must be an integer of at least 0, got {n_items!r}")
    prefix = check_seed(seed)
    return map_blocks(_seeded_block, (fn, args, n_items, block_size, prefix),
                      -(-n_items // block_size), workers)


def _seeded_block(fn, args: tuple, n_items: int, block_size: int, prefix: tuple,
                  b: int):
    count = min(block_size, n_items - b * block_size)
    return fn(*args, count, block_rng(*prefix, b))


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
