"""Seeded results are bit-identical for any worker count, on every parallel API."""

import logging
import os
import re
import signal
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from pauliprop import cli, fanout
from pauliprop.channels import (
    ChannelApplication,
    make_clifford,
    make_depolarizing,
    make_rotation,
)
from pauliprop.fanout import block_rng, fan_out, map_blocks
from pauliprop.magic import classification_census, state_census
from pauliprop.operators import DenseOperator, FactoredState, h_state, pauli_matrix, t_state
from pauliprop.propagation import BATCH_SIZE, Circuit, estimate, hoeffding_epsilon
from pauliprop.qaoa import (
    QaoaParams,
    _VDN_BATCH,
    epsilon_heis,
    epsilon_nest,
    generate_instance,
    heisenberg_estimate,
    run_experiment,
    vdn_estimate,
)

WORKERS = (1, 2, 3)


def _draws(count, rng):
    return rng.random(count)


def test_block_streams_are_keyed_by_seed_and_block():
    # seed XOR worker keys made (seed, 1) and (seed ^ 1, 0) the same stream
    seed = 6
    a = block_rng(seed, 1).random(8)
    b = block_rng(seed ^ 1, 0).random(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, block_rng(seed, 1).random(8))
    # a key packed into as few 32-bit words as each value needs, or
    # zero-padded, would make each of these pairs one stream
    for one, other in (((2**32 + 7, 0, 3), (7, 1, 3)), ((5, 0), (5, 0, 0))):
        assert not np.array_equal(block_rng(*one).random(8), block_rng(*other).random(8))


def test_fan_out_returns_blocks_in_order():
    got = fan_out(_draws, (), 10, 4, 3, workers=2)
    assert [len(block) for block in got] == [4, 4, 2]
    for b, block in enumerate(got):
        assert np.array_equal(block, block_rng(3, b).random(len(block)))
    assert fan_out(_draws, (), 0, 4, 3, workers=2) == []
    # a tuple seed is the key prefix of every block's stream
    for b, block in enumerate(fan_out(_draws, (), 10, 4, (3, 9), workers=2)):
        assert np.array_equal(block, block_rng(3, 9, b).random(len(block)))


@pytest.mark.parametrize("kwargs", [{"workers": 0}, {"workers": -1},
                                    {"seed": -1}, {"seed": 2**64},
                                    {"seed": (3, -1)}, {"seed": (2**64, 0)}])
def test_fan_out_rejects_bad_workers_and_seeds(kwargs):
    args = {"seed": 0, "workers": 1, **kwargs}
    with pytest.raises(ValueError, match="workers|seed"):
        fan_out(_draws, (), 10, 4, args["seed"], args["workers"])


@pytest.mark.parametrize("seed, bad", [(s, s) for s in (1.5, 2.0, np.float64(1.0), True, np.True_,
                                                          "3")]
                         + [((1, 0.5), 0.5), ((False, 0), False)])
def test_non_integer_seed_elements_are_refused(seed, bad):
    # 1.5 and True would draw exactly the stream of the int 1
    with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))} in seed"):
        fanout.check_seed(seed)
    with pytest.raises(ValueError, match="seed elements must be integers"):
        fan_out(_draws, (), 10, 4, seed, 1)
    with pytest.raises(ValueError, match="seed elements must be integers"):
        estimate(_noisy_circuit(), "heisenberg", 10, seed=seed)


@pytest.mark.parametrize("n_samples", [True, 1000.0, np.float64(10.0), "10"])
def test_non_integer_sample_counts_are_refused(n_samples):
    # True would run one sample and report n_samples True; 1000.0 failed
    # with a bare TypeError deep in the fan-out
    inst = generate_instance(8, 10, block_rng(3, 0))
    # the entry points that need a sample, and the error formulas, which divide by the count
    runs = [lambda: estimate(_noisy_circuit(), "heisenberg", n_samples),
            lambda: vdn_estimate(inst, QaoaParams(gamma=0.3), n_samples),
            lambda: hoeffding_epsilon(1.0, n_samples, 0.05),
            lambda: epsilon_heis(20, n_samples, 0.01, 0.3),
            lambda: epsilon_nest(20, n_samples, 0.01)]
    for run in runs:
        with pytest.raises(ValueError, match=f"sample count must be an integer of at least 1, "
                                             f"got {re.escape(repr(n_samples))}"):
            run()
    # the censuses are refused by fan_out, which they call
    runs = [lambda: fan_out(_draws, (), n_samples, 4, 0, 1),
            lambda: classification_census(n_samples),
            lambda: state_census(n_samples)]
    for run in runs:
        with pytest.raises(ValueError, match=f"sample count must be an integer of at least 0, "
                                             f"got {re.escape(repr(n_samples))}"):
            run()


@pytest.mark.parametrize("workers", [1.5, 2.0, True, "2"])
def test_non_integer_worker_counts_are_refused(workers):
    # 1.5 ran serially without complaint
    match = f"workers must be an integer of at least 1, got {re.escape(repr(workers))}"
    with pytest.raises(ValueError, match=match):
        map_blocks(_draws_of_block, (), 3, workers)
    with pytest.raises(ValueError, match=match):
        estimate(_noisy_circuit(), "heisenberg", 10, workers=workers)


def test_numpy_integer_counts_are_taken():
    rep = estimate(_noisy_circuit(), "heisenberg", np.int64(100), workers=np.int32(1))
    assert rep.mean == estimate(_noisy_circuit(), "heisenberg", 100).mean
    assert map_blocks(_draws_of_block, (), np.int64(2), np.uint8(1)) == \
        [_draws_of_block(0), _draws_of_block(1)]
    inst = generate_instance(8, 10, block_rng(3, 0))
    params = QaoaParams(gamma=0.3)
    assert vdn_estimate(inst, params, np.int64(100)) == vdn_estimate(inst, params, 100)
    assert classification_census(np.int64(6), seed=1) == classification_census(6, seed=1)
    # a census of 0 samples is legal, and counts nothing
    assert not any(classification_census(0).counts.values())
    assert not any(state_census(0).values())


def test_numpy_integer_seeds_draw_the_int_streams():
    for seed in (np.int64(7), np.uint64(7), np.int32(7)):
        assert fanout.check_seed((seed, np.uint8(1))) == (seed, np.uint8(1))
        assert block_rng(seed, np.uint8(1)).random() == block_rng(7, 1).random()


def test_fan_out_rejects_negative_counts():
    # -(-n // block) is 0 for a small negative n: unchecked, it would run
    # no block and let the caller report empty counts
    with pytest.raises(ValueError, match="sample count"):
        fan_out(_draws, (), -3, 4, 0, 1)


def test_largest_seed_is_accepted():
    assert fan_out(_draws, (), 1, 4, 2**64 - 1, 1)[0].shape == (1,)


def _noisy_circuit():
    x = DenseOperator(pauli_matrix(1, 1))
    z = DenseOperator(pauli_matrix(3, 1))
    return Circuit(
        n=2,
        input=FactoredState.of_qubit_states([t_state(), h_state()]),
        channels=[ChannelApplication(make_rotation(0.7), (0,)),
                  ChannelApplication(make_depolarizing(0.6), (1,)),
                  ChannelApplication(make_clifford("cnot"), (0, 1)),
                  ChannelApplication(make_clifford("h"), (1,)),
                  ChannelApplication(make_rotation(1.1), (1,))],
        observable=FactoredState.of_qubit_states([z, x]),
    )


@pytest.mark.parametrize("direction", ["schrodinger", "heisenberg"])
def test_estimate_is_worker_count_invariant(direction):
    circ = _noisy_circuit()
    n_samples = 2 * BATCH_SIZE + 123  # three blocks, the last one partial
    reports = [estimate(circ, direction, n_samples, seed=8, workers=w) for w in WORKERS]
    assert reports[0].sample_std > 0.0
    for rep in reports[1:]:
        assert (rep.mean, rep.sample_std) == (reports[0].mean, reports[0].sample_std)


def test_censuses_are_worker_count_invariant():
    results = [classification_census(30, "unital", seed=4, workers=w) for w in WORKERS]
    for res in results[1:]:
        assert res.records == results[0].records
        assert (res.counts, res.invalid) == (results[0].counts, results[0].invalid)
    counts = [state_census(50, n=2, seed=4, workers=w) for w in WORKERS]
    assert counts[1] == counts[0] and counts[2] == counts[0]


def test_vdn_estimate_is_worker_count_invariant():
    inst = generate_instance(8, 10, np.random.default_rng(2))
    params = QaoaParams(gamma=0.3)
    values = [vdn_estimate(inst, params, _VDN_BATCH + 500, seed=5, workers=w)
              for w in WORKERS]
    assert values[1] == values[0] and values[2] == values[0]


def test_heisenberg_estimate_is_worker_count_invariant():
    inst = generate_instance(8, 10, np.random.default_rng(3))
    params = QaoaParams(gamma=0.4)
    results = [heisenberg_estimate(inst, params, BATCH_SIZE + 10, seed=9, workers=w)
               for w in WORKERS]
    assert results[1] == results[0] and results[2] == results[0]


@pytest.fixture
def pool_starts(caplog):
    """The worker count of each pool started from here on, read from the
    pool-start records; the shared pool is shut down first."""
    fanout._drop_pool()
    caplog.set_level(logging.DEBUG, logger="pauliprop")
    return lambda: [rec.pool["workers"] for rec in caplog.records if hasattr(rec, "pool")]


def _pid(b):
    return os.getpid()


def _exit_in_block_one(b):
    if b == 1:
        os._exit(1)
    return b


def test_heisenberg_estimate_starts_one_pool(pool_starts):
    inst = generate_instance(8, 10, np.random.default_rng(3))
    # ten terms, then two nested-estimator blocks: a pool per call would start two
    run_experiment(inst, QaoaParams(gamma=0.4), _VDN_BATCH + 10, seed=9, workers=2)
    assert pool_starts() == [2]
    run_experiment(inst, QaoaParams(gamma=0.4), _VDN_BATCH + 10, seed=9, workers=2)
    heisenberg_estimate(inst, QaoaParams(gamma=0.4), 100, seed=9, workers=1)
    assert pool_starts() == [2]
    old = set(map_blocks(_pid, (), 4, 2))
    heisenberg_estimate(inst, QaoaParams(gamma=0.4), 100, seed=9, workers=3)
    assert pool_starts() == [2, 3]
    for pid in old:  # shut down and reaped
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_a_pool_is_never_wider_than_its_blocks(pool_starts):
    assert len(set(map_blocks(_pid, (), 3, 8))) <= 3
    assert pool_starts() == [3]


def test_a_pool_is_never_wider_than_the_usable_cpus(pool_starts, monkeypatch):
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 2)
    assert len(set(map_blocks(_pid, (), 3, 50))) <= 2
    assert pool_starts() == [2]
    # one usable CPU leaves one worker: the blocks run in this process
    monkeypatch.setattr(fanout, "usable_cpus", lambda: 1)
    assert map_blocks(_pid, (), 3, 50) == [os.getpid()] * 3
    assert pool_starts() == [2]


def test_a_dead_worker_fails_only_its_call(pool_starts):
    with pytest.raises(BrokenProcessPool):
        map_blocks(_exit_in_block_one, (), 4, 2)
    assert map_blocks(_draws_of_block, (), 4, 2) == [_draws_of_block(b) for b in range(4)]
    assert pool_starts() == [2, 2]


def _draws_of_block(b):
    return block_rng(1, b).random(3).tolist()


def test_no_worker_outlives_the_cli(tmp_path):
    src = str(Path(fanout.__file__).resolve().parents[1])
    # the CLI in a fresh interpreter, told of eight usable CPUs so that it
    # starts its two workers on any host
    run_cli = ("import sys; from pauliprop import cli, fanout; "
               "fanout.usable_cpus = lambda: 8; sys.exit(cli.main(sys.argv[1:]))")
    proc = subprocess.Popen(
        [sys.executable, "-c", run_cli, "census", "--samples", "40", "--seed", "1",
         "--workers", "2", "--output", str(tmp_path / "census.json")],
        env={**os.environ, "PYTHONPATH": src}, start_new_session=True)
    assert proc.wait(timeout=120) == 0
    try:
        os.killpg(proc.pid, 0)  # the workers share the CLI's process group
    except ProcessLookupError:
        return
    os.killpg(proc.pid, signal.SIGKILL)
    pytest.fail("a worker outlived the CLI")


@pytest.mark.parametrize("argv", [
    pytest.param(["census", "--samples", "24", "--seed", "7", "--mode", "general"], id="census"),
    pytest.param(["figures", "--which", "fig3", "--seed", "7"], id="fig3"),
])
def test_csv_rows_are_worker_count_invariant(tmp_path, capsys, argv):
    rows = []
    for w in WORKERS:
        out = tmp_path / f"out_{w}.csv"
        assert cli.main(argv + ["--workers", str(w), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert f"workers={w}" in lines[0]  # the metadata line still records it
        rows.append(lines[1:])
    capsys.readouterr()
    assert len(rows[0]) > 1
    assert rows[1] == rows[0] and rows[2] == rows[0]
