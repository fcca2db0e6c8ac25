import math
import weakref

import numpy as np
import pytest

from pauliprop import fanout, propagation, qaoa
from pauliprop.channels import ChannelApplication, make_unitary_ptm
from pauliprop.exact import run_exact
from pauliprop.fanout import block_rng
from pauliprop.operators import DenseOperator, FactoredState, pauli_matrix, plus_state
from pauliprop.propagation import Circuit, cost_report, hoeffding_epsilon
from pauliprop.qaoa import (
    E3Lin2Instance,
    QaoaParams,
    _zzz_rotation,
    build_term_circuit,
    degree_cap,
    epsilon_heis,
    epsilon_nest,
    generate_instance,
    heisenberg_estimate,
    overlapping_equations,
    run_experiment,
    term_weights,
    vdn_estimate,
)

from dense import exact_expectation


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def test_degree_cap_values():
    assert degree_cap(32, 40) == 4   # max(4, ceil(120/32) = 4)
    assert degree_cap(16, 20) == 4   # ceil(60/16) = 4 relaxes the m//10 = 2
    assert degree_cap(100, 50) == 5  # m//10 dominates when n is large
    assert degree_cap(8, 10) == 4


def test_instance_validation():
    ok = E3Lin2Instance(3, 1, [(0, 1, 2, 0)])
    assert ok.equations == ((0, 1, 2, 0),)
    with pytest.raises(ValueError, match="at least 3"):
        E3Lin2Instance(2, 1, [(0, 1, 2, 0)])
    with pytest.raises(ValueError, match="m must equal"):
        E3Lin2Instance(3, 2, [(0, 1, 2, 0)])
    with pytest.raises(ValueError, match="sorted"):
        E3Lin2Instance(3, 1, [(1, 0, 2, 0)])
    with pytest.raises(ValueError, match="parity"):
        E3Lin2Instance(3, 1, [(0, 1, 2, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        E3Lin2Instance(4, 2, [(0, 1, 2, 0), (0, 1, 2, 1)])
    with pytest.raises(ValueError, match="degree"):
        E3Lin2Instance(6, 2, [(0, 1, 2, 0), (0, 3, 4, 0)])
    with pytest.raises(ValueError, match="finite"):
        QaoaParams(math.inf)


def test_instance_helpers():
    inst = E3Lin2Instance(7, 3, [(0, 1, 2, 0), (3, 4, 5, 1), (2, 3, 6, 0)])
    masks = inst.triple_masks()
    assert masks.shape == (3, 7)
    assert masks[0].tolist() == [1, 1, 1, 0, 0, 0, 0]
    np.testing.assert_allclose(inst.signs(), [1.0, -1.0, 1.0])
    np.testing.assert_allclose(term_weights(inst), [0.5, -0.5, 0.5])
    assert overlapping_equations(inst, 0) == [0, 2]
    assert overlapping_equations(inst, 1) == [1, 2]
    assert overlapping_equations(inst, 2) == [0, 1, 2]


def test_generate_instance_constraints():
    with pytest.raises(ValueError, match="m >= 10"):
        generate_instance(8, 9, rng_for(0))
    with pytest.raises(ValueError, match="at least 3"):
        generate_instance(2, 10, rng_for(0))
    with pytest.raises(ValueError, match="distinct triples"):
        generate_instance(5, 11, rng_for(0))
    inst = generate_instance(16, 20, rng_for(7))
    assert (inst.n, inst.m) == (16, 20)
    assert len({eq[:3] for eq in inst.equations}) == 20
    cap = degree_cap(16, 20)
    degrees = np.zeros(16, dtype=int)
    for a, b, c, _ in inst.equations:
        degrees[[a, b, c]] += 1
    assert degrees.max() <= cap
    again = generate_instance(16, 20, rng_for(7))
    assert again == inst


def test_zzz_rotation_matrix():
    theta = 0.8
    u = _zzz_rotation(theta)
    assert u.shape == (8, 8)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-12)
    for b in range(8):
        parity = (-1.0) ** bin(b).count("1")
        assert abs(u[b, b] - np.exp(-0.5j * theta * parity)) < 1e-12


def test_gamma_zero_full_mixer_kills_every_term():
    inst = generate_instance(8, 10, rng_for(3))
    params = QaoaParams(gamma=0.0)
    assert abs(exact_expectation(inst, params)) < 1e-12
    total, eps = heisenberg_estimate(inst, params, 500, seed=1)
    assert total == 0.0  # Z maps to Y exactly, and Tr(Y |+><+|) = 0
    assert eps > 0.0
    assert abs(vdn_estimate(inst, params, 4000, seed=2)) < 1e-12


def _uncut_term_circuit(inst, params, term):
    """Term `term`'s observable after every ZZZ rotation and a mixer on every
    qubit: the whole QAOA circuit, which build_term_circuit cuts down."""
    mixer = make_unitary_ptm(math.cos(params.beta) * pauli_matrix(0, 1)
                             - 1j * math.sin(params.beta) * pauli_matrix(1, 1))
    rotation = {s: make_unitary_ptm(_zzz_rotation(params.gamma * s)) for s in (1.0, -1.0)}
    channels = [ChannelApplication(rotation[s], eq[:3])
                for eq, s in zip(inst.equations, inst.signs())]
    channels += [ChannelApplication(mixer, (q,)) for q in range(inst.n)]
    triple = inst.equations[term][:3]
    obs = FactoredState.of_qubit_states(
        [DenseOperator(pauli_matrix(3 if q in triple else 0, 1)) for q in range(inst.n)])
    inp = FactoredState.of_qubit_states([plus_state()] * inst.n)
    return Circuit(inst.n, inp, tuple(channels), obs)


@pytest.mark.parametrize("term", range(10))
@pytest.mark.parametrize("gamma,beta", [(math.pi / 8, math.pi / 4), (0.7, 0.3)])
def test_lightcone_restriction_is_exact(gamma, beta, term):
    inst = generate_instance(8, 10, rng_for(5))
    params = QaoaParams(gamma=gamma, beta=beta)
    full = run_exact(_uncut_term_circuit(inst, params, term))
    cone = run_exact(build_term_circuit(inst, params, term))
    assert abs(full - cone) < 1e-12


def test_epsilon_formulas():
    # frozen from the restated closed form evaluated by hand
    assert abs(epsilon_heis(20, 10**6, 0.01, math.pi / 8)
               - 0.09486485718158919) < 1e-15
    assert abs(epsilon_nest(20, 10**6, 0.01) - 0.0460361482600273) < 1e-15
    base = abs(math.sin(0.4)) + abs(math.cos(0.4))
    want = 30 / math.sqrt(2 * 5000) * math.sqrt(math.log(2 / 0.05)) * base ** 7.0
    assert abs(epsilon_heis(30, 5000, 0.05, 0.4) - want) < 1e-12
    assert epsilon_nest(40, 1000, 0.01) > epsilon_nest(20, 1000, 0.01)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, 3.0, -0.1, math.nan])
def test_epsilon_formulas_refuse_bad_delta(delta):
    # epsilon_nest raised ZeroDivisionError at 0 and a math domain error at 3,
    # and epsilon_heis returned a number at 1.5
    for eps in (lambda: epsilon_heis(20, 1000, delta, 0.3), lambda: epsilon_nest(20, 1000, delta)):
        with pytest.raises(ValueError, match=f"delta must lie in \\(0, 1\\).*got {delta!r}"):
            eps()


def test_both_estimators_match_the_oracle():
    inst = generate_instance(8, 10, rng_for(11))
    params = QaoaParams(gamma=math.pi / 8)
    want = exact_expectation(inst, params)
    total, eps_engine = heisenberg_estimate(inst, params, 20_000, seed=4)
    assert abs(total - want) <= eps_engine
    vdn = vdn_estimate(inst, params, 400_000, seed=9)
    assert abs(vdn - want) <= epsilon_nest(inst.m, 400_000, 0.01)


# seeded nested estimates of one n = 16, m = 20 instance over one full and one
# partial block
VDN_PINS = {
    (math.pi / 8, math.pi / 4): -2.0229014277531263,  # one column per term
    (0.7, 0.3): 3.3130374553301523,  # seven columns per term
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("angles", list(VDN_PINS))
def test_vdn_seeded_estimates(angles, workers):
    inst = generate_instance(16, 20, block_rng(5, 0))
    value = vdn_estimate(inst, QaoaParams(*angles), 100_000, seed=3, workers=workers)
    assert value == VDN_PINS[angles]


@pytest.mark.parametrize("n_samples", [0, -1])
def test_vdn_refuses_fewer_than_one_sample(n_samples):
    inst = generate_instance(8, 10, rng_for(3))
    with pytest.raises(ValueError, match=f"n_samples must be at least 1, got {n_samples}"):
        vdn_estimate(inst, QaoaParams(gamma=0.3), n_samples)


def test_engine_epsilon_is_the_weighted_triangle_sum():
    inst = generate_instance(8, 10, rng_for(11))
    params = QaoaParams(gamma=math.pi / 16)
    n_samples = 300
    _, eps_engine = heisenberg_estimate(inst, params, n_samples, delta=0.01,
                                        seed=0)
    weights = term_weights(inst)
    want = sum(
        abs(weights[t]) * hoeffding_epsilon(
            cost_report(build_term_circuit(inst, params, t), "heisenberg").total_bound,
            n_samples, 0.01)
        for t in range(inst.m)
    )
    assert abs(eps_engine - want) < 1e-12


def test_run_experiment_record():
    inst = generate_instance(8, 10, rng_for(2))
    params = QaoaParams(gamma=math.pi / 16)
    rec = run_experiment(inst, params, 2000, seed=6)
    assert rec["n"] == 8 and rec["m"] == 10 and rec["n_samples"] == 2000
    assert rec["gamma"] == math.pi / 16 and rec["beta"] == math.pi / 4
    assert rec["abs_err"] == abs(rec["C_heis"] - rec["C_vdn"])
    assert abs(rec["eps_heis"]
               - epsilon_heis(10, 2000, 0.01, math.pi / 16)) < 1e-15
    assert abs(rec["eps_nest"] - epsilon_nest(10, 2000, 0.01)) < 1e-15
    assert rec["eps_heis_engine"] > 0
    assert rec["seconds"] > 0


def test_seed_tuple_is_a_key_prefix():
    # an int seed s keys the same streams as the prefix (s,)
    inst = generate_instance(8, 10, rng_for(2))
    params = QaoaParams(gamma=math.pi / 16)
    assert (heisenberg_estimate(inst, params, 300, seed=(5,))
            == heisenberg_estimate(inst, params, 300, seed=5))
    recs = [run_experiment(inst, params, 300, seed=seed) for seed in ((5,), 5, (5, 1))]
    for rec in recs:
        del rec["seconds"]
    assert recs[0] == recs[1] != recs[2]


def test_term_seeds_do_not_repeat_across_shifted_base_seeds(monkeypatch):
    # with an additive stride of 0x9E3779B9 per term, these two base seeds
    # would share 9 of the 10 term streams
    calls = []
    real = qaoa.estimate

    def estimate(circuit, direction, n_samples, **kwargs):
        calls.append(kwargs["seed"])
        return real(circuit, direction, n_samples, **kwargs)

    monkeypatch.setattr(qaoa, "estimate", estimate)
    inst = generate_instance(8, 10, rng_for(3))
    params = QaoaParams(gamma=math.pi / 8)
    heisenberg_estimate(inst, params, 10, seed=5)
    heisenberg_estimate(inst, params, 10, seed=5 + 0x9E3779B9)
    first, second = set(calls[:inst.m]), set(calls[inst.m:])
    assert len(calls) == 2 * inst.m and len(first) == len(second) == inst.m
    assert not first & second
    with pytest.raises(ValueError, match="seed"):
        heisenberg_estimate(inst, params, 10, seed=-1)

    # every stream key of one run_experiment, nested estimator
    # included: that once drew from block_rng(s + 1, b), batch b of a run at
    # seed s + 1 and, for b = 0, the instance generator of the qaoa CLI and
    # fig6 at seed s + 1
    runs = _stream_keys(monkeypatch, inst, params, (5, 6))
    for run in runs:  # one batch per term, then one nested batch
        assert len(run) == len(set(run)) == inst.m + 1
    assert not set(runs[0]) & (set(runs[1]) | {(6, 0)})


def _stream_keys(monkeypatch, inst, params, seeds):
    """The block_rng key of every stream one run_experiment draws from, per
    seed, in draw order."""
    keys = []
    real_rng = fanout.block_rng

    def block_rng(*key):
        keys.append(key)
        return real_rng(*key)

    monkeypatch.setattr(fanout, "block_rng", block_rng)
    runs = []
    for seed in seeds:
        keys.clear()
        run_experiment(inst, params, 10, seed=seed)
        runs.append(list(keys))
    return runs


def test_runs_at_seeds_a_word_apart_share_no_stream(monkeypatch):
    # a seed hashed as a variable number of 32-bit words made term 0 of a run
    # at seed 2**32 + 7 draw term 1's stream of a run at seed 7
    inst = generate_instance(8, 10, rng_for(3))
    seeds = (7, 2**32 + 7)
    runs = _stream_keys(monkeypatch, inst, QaoaParams(gamma=math.pi / 8), seeds)
    keys = [key for run in runs for key in run] + [(seed, 0) for seed in seeds]
    assert len(keys) == 2 * (inst.m + 1) + 2  # the instance draws come last
    first = [block_rng(*key).random() for key in keys]
    assert len(set(first)) == len(keys)


def test_rotation_ptms_are_built_once_per_angle(monkeypatch):
    builds = []
    real = qaoa.make_unitary_ptm

    def make_unitary_ptm(u):
        builds.append(u.shape)
        return real(u)

    monkeypatch.setattr(qaoa, "make_unitary_ptm", make_unitary_ptm)
    qaoa._zzz_rotation_ptm.cache_clear()
    qaoa._mixer_ptm.cache_clear()
    inst = generate_instance(8, 10, rng_for(11))
    assert {eq[3] for eq in inst.equations} == {0, 1}
    params = QaoaParams(gamma=0.3, beta=0.2)
    heisenberg_estimate(inst, params, 10, seed=1)
    # +gamma and -gamma rotations and one mixer, for all ten terms
    assert sorted(builds) == [(2, 2), (8, 8), (8, 8)]
    heisenberg_estimate(inst, params, 10, seed=2)
    assert len(builds) == 3


def test_step_tables_are_tabulated_once_per_source(monkeypatch):
    shapes, placed = [], []
    real_tabulate, real_place = propagation._tabulate, propagation._place

    def tabulate(r):
        shapes.append(r.shape)
        return real_tabulate(r)

    def place(table, qubits):
        placed.append(qubits)
        return real_place(table, qubits)

    monkeypatch.setattr(propagation, "_tabulate", tabulate)
    monkeypatch.setattr(propagation, "_place", place)
    monkeypatch.setattr(propagation, "_TABLES", weakref.WeakKeyDictionary())
    propagation._fused_finish.cache_clear()
    inst = generate_instance(8, 10, rng_for(11))
    assert {eq[3] for eq in inst.equations} == {0, 1}
    params = QaoaParams(gamma=0.3, beta=0.2)
    heisenberg_estimate(inst, params, 10, seed=1)
    # Heisenberg tables of the +gamma and -gamma rotations and the mixer,
    # and the start tables of the Z and identity observable factors
    assert sorted(shapes) == [(4, 1), (4, 1), (4, 4), (64, 64), (64, 64)]
    first_placements = len(placed)
    heisenberg_estimate(inst, params, 10, seed=2)
    assert len(shapes) == 5 and len(placed) == first_placements
    # the |+>^8 finish run is fused once, then found by content
    info = propagation._fused_finish.cache_info()
    assert (info.misses, info.hits) == (1, 2 * inst.m - 1)
