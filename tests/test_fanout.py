"""Seeded results are bit-identical for any worker count, on every parallel API."""

import numpy as np
import pytest

from pauliprop import cli, fanout
from pauliprop.channels import (
    ChannelApplication,
    make_clifford,
    make_depolarizing,
    make_rotation,
)
from pauliprop.fanout import block_rng, fan_out
from pauliprop.magic import classification_census, state_census
from pauliprop.operators import DenseOperator, FactoredState, h_state, pauli_matrix, t_state
from pauliprop.propagation import BATCH_SIZE, Circuit, estimate
from pauliprop.qaoa import (
    QaoaParams,
    _VDN_BATCH,
    generate_instance,
    heisenberg_estimate,
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


def test_fan_out_returns_blocks_in_order():
    got = fan_out(_draws, (), 10, 4, 3, workers=2)
    assert [len(block) for block in got] == [4, 4, 2]
    for b, block in enumerate(got):
        assert np.array_equal(block, block_rng(3, b).random(len(block)))
    assert fan_out(_draws, (), 0, 4, 3, workers=2) == []


@pytest.mark.parametrize("kwargs", [{"workers": 0}, {"workers": -1},
                                    {"seed": -1}, {"seed": 2**64}])
def test_fan_out_rejects_bad_workers_and_seeds(kwargs):
    args = {"seed": 0, "workers": 1, **kwargs}
    with pytest.raises(ValueError, match="workers|seed"):
        fan_out(_draws, (), 10, 4, args["seed"], args["workers"])


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


def test_heisenberg_estimate_starts_one_pool(monkeypatch):
    starts = []

    class CountingPool(fanout.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fanout, "ProcessPoolExecutor", CountingPool)
    inst = generate_instance(8, 10, np.random.default_rng(3))
    # two blocks per term, so a pool per term would start ten pools
    heisenberg_estimate(inst, QaoaParams(gamma=0.4), BATCH_SIZE + 10, seed=9, workers=2)
    assert starts == [2]
    heisenberg_estimate(inst, QaoaParams(gamma=0.4), 100, seed=9, workers=1)
    assert starts == [2]


def test_census_csv_rows_are_worker_count_invariant(tmp_path, capsys):
    rows = []
    for w in WORKERS:
        out = tmp_path / f"census_{w}.csv"
        assert cli.main(["census", "--samples", "24", "--seed", "7", "--mode", "general",
                         "--workers", str(w), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert f"workers={w}" in lines[0]  # the metadata line still records it
        rows.append(lines[1:])
    capsys.readouterr()
    assert len(rows[0]) > 1
    assert rows[1] == rows[0] and rows[2] == rows[0]
