import math

import numpy as np
import pytest

from pauliprop import propagation
from pauliprop.channels import (
    CLIFFORD_NAMES,
    ChannelApplication,
    compose,
    make_adaptive,
    make_clifford,
    make_depolarizing,
    make_measure_z,
    make_reset,
    make_rotation,
    make_unitary_ptm,
)
from pauliprop.exact import run_exact
from pauliprop.operators import (
    DenseOperator,
    FactoredState,
    h_state,
    maximally_mixed,
    pauli_matrix,
    plus_state,
    t_state,
    zero_state,
)
from pauliprop.propagation import (
    BATCH_SIZE,
    BoundOverflowError,
    Circuit,
    ENGINE_MAX_QUBITS,
    compile_circuit,
    cost_report,
    estimate,
    hoeffding_epsilon,
    observable_trace_bound,
    plan_samples,
)
from pauliprop.qaoa import _zzz_rotation


def pauli_factor(n, index_by_qubit):
    """Observable with one 1-qubit factor per qubit; identity when omitted."""
    factors = []
    for q in range(n):
        idx = index_by_qubit.get(q, 0)
        factors.append(((q,), DenseOperator(pauli_matrix(idx, 1))))
    return FactoredState(n, factors)


def trivial_circuit():
    return Circuit(
        n=1,
        input=FactoredState.of_qubit_states([zero_state()]),
        channels=[],
        observable=pauli_factor(1, {0: 3}),
    )


def bell_circuit(observable):
    return Circuit(
        n=2,
        input=FactoredState.of_qubit_states([zero_state(), zero_state()]),
        channels=[
            ChannelApplication(make_clifford("h"), (0,)),
            ChannelApplication(make_clifford("cnot"), (0, 1)),
        ],
        observable=observable,
    )


def test_plan_samples_frozen_value():
    # bound = 1, so N = ceil(2 ln(2/0.01) / 0.01^2) = ceil(20000 ln 200),
    # evaluated once with the closed form: 105967
    got = plan_samples(trivial_circuit(), "heisenberg", 0.01, 0.01)
    assert got == 105967
    with pytest.raises(ValueError):
        plan_samples(trivial_circuit(), "heisenberg", 0.0, 0.01)


def test_plan_samples_meets_its_own_epsilon():
    circ = trivial_circuit()
    for eps in (0.5, 0.07, 0.01):
        n = plan_samples(circ, "heisenberg", eps, 0.05)
        assert hoeffding_epsilon(1.0, n, 0.05) <= eps
        assert hoeffding_epsilon(1.0, n - 1, 0.05) > eps


def test_hoeffding_epsilon_closed_form():
    want = 2 * 2.5 * math.sqrt(math.log(2 / 0.05) / (2 * 1000))
    assert abs(hoeffding_epsilon(2.5, 1000, 0.05) - want) < 1e-15


def test_heisenberg_cost_ignores_the_input_state():
    obs = pauli_factor(1, {0: 1})
    chans = [ChannelApplication(make_rotation(0.8), (0,))]
    reports = []
    for state in (zero_state(), h_state(), maximally_mixed(1)):
        circ = Circuit(1, FactoredState.of_qubit_states([state]), chans, obs)
        reports.append(cost_report(circ, "heisenberg"))
    assert all(r.state_cost == 1.0 for r in reports)
    assert len({r.total_bound for r in reports}) == 1
    # forward direction does pay for the input magic
    fwd = [cost_report(Circuit(1, FactoredState.of_qubit_states([s]), chans, obs),
                       "schrodinger").state_cost
           for s in (zero_state(), h_state())]
    assert abs(fwd[0] - 1.0) < 1e-12
    assert abs(fwd[1] - (1 + math.sqrt(2)) / 2) < 1e-12


def test_identity_marginal_costs_two_to_the_k():
    e = FactoredState(2, [((0, 1), DenseOperator(np.eye(4)))])
    assert abs(observable_trace_bound(e) - 4.0) < 1e-12
    # traces are unnormalized, so each 1q factor contributes 2 here
    assert abs(observable_trace_bound(pauli_factor(3, {1: 3})) - 8.0) < 1e-12


def test_cost_report_rejects_unknown_direction():
    with pytest.raises(ValueError, match="direction"):
        cost_report(trivial_circuit(), "sideways")


def test_total_bound_overflow():
    # D(reset to |T>) = 1 + sqrt(2) forward; 800 of them pass 1e300
    app = ChannelApplication(make_reset(t_state()), (0,))
    circ = Circuit(
        n=1,
        input=FactoredState.of_qubit_states([zero_state()]),
        channels=[app] * 800,
        observable=pauli_factor(1, {0: 3}),
    )
    with pytest.raises(BoundOverflowError):
        cost_report(circ, "schrodinger")
    # the adjoint norm of a reset is 1, so the reverse walk is still fine
    assert cost_report(circ, "heisenberg").total_bound == 1.0


def test_engine_register_cap():
    n = ENGINE_MAX_QUBITS + 1
    circ = Circuit(
        n=n,
        input=FactoredState.of_qubit_states([zero_state()] * n),
        channels=[],
        observable=pauli_factor(n, {0: 3}),
    )
    with pytest.raises(ValueError, match="register cap"):
        compile_circuit(circ, "heisenberg")


def test_circuit_validation():
    with pytest.raises(ValueError, match="register size"):
        Circuit(2, FactoredState.of_qubit_states([zero_state()]), [],
                pauli_factor(2, {}))
    with pytest.raises(ValueError, match="out of range"):
        Circuit(1, FactoredState.of_qubit_states([zero_state()]),
                [ChannelApplication(make_rotation(0.1), (1,))],
                pauli_factor(1, {}))
    with pytest.raises(ValueError, match="not a valid state"):
        Circuit(1, FactoredState(1, [((0,), DenseOperator(pauli_matrix(1, 1)))]),
                [], pauli_factor(1, {}))


def test_singleton_start_factors_fold_into_constants():
    compiled = compile_circuit(bell_circuit(pauli_factor(2, {0: 3, 1: 3})),
                               "heisenberg")
    assert compiled.start.factors == []
    assert compiled.start.const_coeff == 1.0
    assert compiled.start.const_z == 0b11
    # -Z (x) 2X: the folded coefficient keeps the sign, times D = 1 * 2
    signed = FactoredState(2, [((0,), DenseOperator(-pauli_matrix(3, 1))),
                               ((1,), DenseOperator(2 * pauli_matrix(1, 1)))])
    start = compile_circuit(bell_circuit(signed), "heisenberg").start
    assert (start.factors, start.const_coeff) == ([], -2.0)
    assert (start.const_x, start.const_z) == (0b10, 0b01)


def random_mixed_circuit(n, depth, rng):
    one_q = [zero_state, plus_state, h_state, t_state]
    input_factors = [((q,), one_q[rng.integers(4)]()) for q in range(n)]
    channels = []
    for _ in range(depth):
        kind = rng.integers(5)
        q = int(rng.integers(n))
        if kind == 0:
            name = ("h", "s", "x", "y", "z")[rng.integers(5)]
            channels.append(ChannelApplication(make_clifford(name), (q,)))
        elif kind == 1:
            pair = rng.choice(n, size=2, replace=False)
            gate = ("cnot", "cz")[rng.integers(2)]
            channels.append(ChannelApplication(make_clifford(gate),
                                               tuple(int(v) for v in pair)))
        elif kind == 2:
            channels.append(ChannelApplication(
                make_rotation(float(rng.uniform(0, 2 * np.pi))), (q,)))
        elif kind == 3:
            channels.append(ChannelApplication(
                make_depolarizing(float(rng.uniform(0.3, 1.0))), (q,)))
        elif rng.random() < 0.5:
            channels.append(ChannelApplication(make_measure_z(), (q,)))
        else:
            channels.append(ChannelApplication(make_reset(t_state()), (q,)))
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    herm = 0.25 * (g + g.conj().T)
    # the (0, 2) factor is deliberately non-consecutive: it must go through
    # the generic multi-qubit finish path, not the fused block tables
    observable = FactoredState(n, [
        ((0, 2), DenseOperator(herm)),
        ((1,), DenseOperator(pauli_matrix(int(rng.integers(4)), 1))),
        ((3,), DenseOperator(np.eye(2))),
    ])
    return Circuit(n, FactoredState(n, input_factors), channels, observable)


@pytest.mark.parametrize("direction", ["schrodinger", "heisenberg"])
def test_estimator_is_unbiased_against_dense_oracle(direction):
    rng = np.random.default_rng(100)
    n_samples = 40_000
    for trial in range(5):
        circ = random_mixed_circuit(4, 8, rng)
        want = run_exact(circ)
        rep = estimate(circ, direction, n_samples, seed=trial)
        tol = 6.0 * max(rep.sample_std, 1e-12) / math.sqrt(n_samples) + 1e-9
        assert abs(rep.mean - want) < tol, (trial, rep.mean, want, tol)


def test_entangled_input_factor():
    psi = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    bell = DenseOperator(np.outer(psi, psi.conj()))
    circ = Circuit(
        n=2,
        input=FactoredState(2, [((0, 1), bell)]),
        channels=[ChannelApplication(make_rotation(0.9), (0,)),
                  ChannelApplication(make_measure_z(), (1,))],
        observable=pauli_factor(2, {0: 3, 1: 3}),
    )
    want = run_exact(circ)
    for direction in ("schrodinger", "heisenberg"):
        rep = estimate(circ, direction, 30_000, seed=7)
        tol = 6.0 * max(rep.sample_std, 1e-12) / math.sqrt(rep.n_samples) + 1e-9
        assert abs(rep.mean - want) < tol


def test_runs_are_bit_reproducible():
    # rotations and depolarizing keep the trajectory values continuous, so
    # distinct seeds almost surely give distinct means
    circ = Circuit(
        n=2,
        input=FactoredState.of_qubit_states([t_state(), h_state()]),
        channels=[
            ChannelApplication(make_rotation(0.7), (0,)),
            ChannelApplication(make_depolarizing(0.5), (1,)),
            ChannelApplication(make_clifford("cnot"), (0, 1)),
            ChannelApplication(make_rotation(1.1), (1,)),
        ],
        observable=pauli_factor(2, {0: 3, 1: 3}),
    )
    a = estimate(circ, "schrodinger", 5000, seed=3)
    b = estimate(circ, "schrodinger", 5000, seed=3)
    assert a.mean == b.mean and a.sample_std == b.sample_std
    assert a.sample_std > 0.0
    c = estimate(circ, "schrodinger", 5000, seed=4)
    assert c.mean != a.mean


def test_worker_split_is_deterministic_too():
    rng = np.random.default_rng(18)
    circ = random_mixed_circuit(4, 6, rng)
    a = estimate(circ, "heisenberg", 4000, seed=5, workers=2)
    b = estimate(circ, "heisenberg", 4000, seed=5, workers=2)
    assert a.mean == b.mean
    want = run_exact(circ)
    tol = 6.0 * max(a.sample_std, 1e-12) / math.sqrt(4000) + 1e-9
    assert abs(a.mean - want) < tol


def test_clifford_backward_walk_is_exact():
    cases = [({0: 3, 1: 3}, 1.0), ({0: 1, 1: 1}, 1.0), ({0: 3}, 0.0)]
    for spec, want in cases:
        rep = estimate(bell_circuit(pauli_factor(2, spec)), "heisenberg", 1000,
                       seed=0)
        assert rep.mean == want
        assert rep.sample_std == 0.0


def test_dead_column_annihilates_exactly():
    circ = Circuit(
        n=1,
        input=FactoredState.of_qubit_states([plus_state()]),
        channels=[ChannelApplication(make_measure_z(), (0,))],
        observable=pauli_factor(1, {0: 1}),
    )
    for direction in ("schrodinger", "heisenberg"):
        rep = estimate(circ, direction, 2000, seed=1)
        assert rep.mean == 0.0
        assert rep.sample_std == 0.0


def test_estimate_validation():
    circ = trivial_circuit()
    with pytest.raises(ValueError, match="direction"):
        estimate(circ, "both", 10)
    with pytest.raises(ValueError, match="n_samples"):
        estimate(circ, "schrodinger", 0)
    with pytest.raises(ValueError, match="workers"):
        estimate(circ, "schrodinger", 10, workers=0)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, -0.1, math.nan])
def test_bad_delta_is_refused_before_sampling(monkeypatch, delta):
    monkeypatch.setattr(propagation, "fan_out", None)  # any walk would fail
    with pytest.raises(ValueError, match="delta"):
        estimate(trivial_circuit(), "heisenberg", 10, delta=delta)
    with pytest.raises(ValueError, match="delta"):
        plan_samples(trivial_circuit(), "heisenberg", 0.1, delta)


@pytest.mark.parametrize("epsilon", [0.0, -0.5, math.inf, math.nan])
def test_bad_epsilon_target_is_refused(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        plan_samples(trivial_circuit(), "heisenberg", epsilon, 0.01)


def test_cost_report_runs_once_per_estimate(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return cost_report(*args)

    monkeypatch.setattr(propagation, "cost_report", counted)
    circ = bell_circuit(pauli_factor(2, {0: 3, 1: 3}))
    for direction in ("schrodinger", "heisenberg"):
        assert estimate(circ, direction, 10).cost == cost_report(circ, direction)
    assert len(calls) == 2


def test_deep_wide_clifford_walk_returns_to_its_observable():
    """A random Clifford circuit followed by its inverse maps a Z word back to
    itself, so on |0...0> the exact value is 1, not 0."""
    rng = np.random.default_rng(31)
    n = 32
    gates = []
    for _ in range(300):
        if rng.random() < 0.3:
            pair = tuple(int(v) for v in rng.choice(n, size=2, replace=False))
            gates.append(("cnot" if rng.random() < 0.5 else "cz", pair))
        else:
            gates.append((("h", "s", "x", "y", "z")[int(rng.integers(5))],
                          (int(rng.integers(n)),)))
    inverse = []
    for name, qubits in reversed(gates):
        # S is the only gate here that is not its own inverse: S^dag = S^3
        inverse += [(name, qubits)] * (3 if name == "s" else 1)
    channels = [ChannelApplication(make_clifford(name), qubits)
                for name, qubits in gates + inverse]
    z_word = {q: 3 for q in range(n) if rng.random() < 0.5}
    circ = Circuit(n, FactoredState.of_qubit_states([zero_state()] * n), channels,
                   pauli_factor(n, z_word))
    rep = estimate(circ, "heisenberg", 5000, seed=2)
    assert rep.mean == 1.0
    assert rep.sample_std == 0.0


def test_report_serialization():
    rep = estimate(trivial_circuit(), "heisenberg", 50, seed=2)
    d = rep.to_dict()
    assert d["n_samples"] == 50
    assert d["cost"]["total_bound"] == 1.0
    assert set(d) >= {"mean", "epsilon", "delta", "seed", "direction", "workers"}


def dense_u3():
    """A fixed random 3-qubit unitary: its PTM columns have up to 63 outputs."""
    g = np.random.default_rng(5).standard_normal((8, 8, 2))
    return np.linalg.qr(g[..., 0] + 1j * g[..., 1])[0]


def golden_pair():
    """An entangled 2-qubit state: a Bell state mixed with T (x) H."""
    bell = np.zeros((4, 4), dtype=complex)
    bell[np.ix_([0, 3], [0, 3])] = 0.5
    return DenseOperator(0.7 * bell + 0.3 * np.kron(t_state().matrix, h_state().matrix))


def golden_circuit(kind):
    """Four qubits, one step kind. The input has an entangled factor on the
    non-adjacent pair (0, 2) and the observable a factor on (3, 1), so both
    directions finish through a multi-qubit factor as well as 1-qubit ones."""
    inp = FactoredState(4, [((0, 2), golden_pair()), ((1,), t_state()), ((3,), h_state())])
    coeffs = np.zeros(16)
    coeffs[[0, 5, 7, 9, 15]] = [0.2, 0.5, -0.4, 0.3, -0.25]
    obs = FactoredState(4, [((3, 1), DenseOperator.from_coeffs(coeffs, 2)),
                            ((0,), DenseOperator.from_coeffs([0.1, 0.5, 0.5, 0.3], 1)),
                            ((2,), DenseOperator(pauli_matrix(3, 1)))])
    noisy_t = compose(make_depolarizing(0.8), make_rotation(math.pi / 4))
    steps = {
        "h": [(make_clifford("h"), (q,)) for q in (0, 2, 1, 3)],
        "cnot": [(make_clifford("cnot"), p) for p in ((0, 1), (2, 3), (3, 0), (1, 2))],
        "noisy_t": [(noisy_t, (q,)) for q in (0, 2, 1, 3)],
        "zzz": [(make_unitary_ptm(_zzz_rotation(math.pi / 8)), t)
                for t in ((0, 1, 2), (3, 1, 0))],
        "u3": [(make_unitary_ptm(dense_u3()), (2, 0, 3)), (make_clifford("h"), (1,))],
        "dead": [(make_rotation(0.9), (0,)), (make_measure_z(), (0,)),
                 (make_reset(t_state()), (1,)), (make_rotation(0.4), (2,)),
                 (make_measure_z(), (2,))],
    }[kind]
    return Circuit(4, inp, [ChannelApplication(p, q) for p, q in steps], obs)


# seeded (mean, sample_std) over two batches, pinned from an engine that
# decoded base-4 PTM digits per step: the code-indexed tables reproduce them
# bit for bit, because they keep each column's outputs and the u -> slot rule
GOLDEN = {
    ("h", "schrodinger"): (-0.027972644088503796, 0.6027519574569821),
    ("h", "heisenberg"): (-0.02695808571209921, 0.42634660925644857),
    ("cnot", "schrodinger"): (-0.04663243523717131, 0.8269224197310622),
    ("cnot", "heisenberg"): (-0.046320516596515676, 0.3845372181495454),
    ("noisy_t", "schrodinger"): (0.04079590705036786, 0.40544403254570377),
    ("noisy_t", "heisenberg"): (0.039159476736156724, 0.2462092142864834),
    ("zzz", "schrodinger"): (0.10491105270668699, 1.0038485970829318),
    ("zzz", "heisenberg"): (0.09812690322315959, 0.5778464820490395),
    ("u3", "schrodinger"): (-0.017221353360893005, 3.9850637427989177),
    ("u3", "heisenberg"): (0.010930364361015577, 2.232610833861744),
    ("dead", "schrodinger"): (0.0857726913756742, 1.0797811107053576),
    ("dead", "heisenberg"): (0.08395694999999999, 0.4037462869193797),
}


@pytest.mark.parametrize("kind, direction", sorted(GOLDEN))
def test_golden_seeded_estimates(kind, direction):
    rep = estimate(golden_circuit(kind), direction, BATCH_SIZE + 4_464, seed=11)
    assert (rep.mean, rep.sample_std) == GOLDEN[kind, direction]


def _pauli_index(code, k):
    """PTM index (base-4 digits I, X, Y, Z) of the local code xbits | zbits << k."""
    index = 0
    for pos in range(k):
        xb, zb = (code >> pos) & 1, (code >> (k + pos)) & 1
        index += ((0, 3), (1, 2))[xb][zb] << (2 * pos)
    return index


def _decode_step(step):
    """Dense matrix whose column j is the expected output of Pauli j; a start
    step has the identity column alone."""
    k = len(step.qubits)
    columns, m = step.cum.shape[1], step.m
    register = sum(1 << q for q in step.qubits)
    dense = np.zeros((4**k, columns))
    for c in range(columns):
        for slot in range(m):
            upper = 1.0 if slot == m - 1 else step.cum[slot, c]
            lower = 0.0 if slot == 0 else step.cum[slot - 1, c]
            e = c * m + slot
            dx, dz = int(step.dx[e]), int(step.dz[e])
            assert dx & ~register == 0 and dz & ~register == 0
            out = c
            for pos, q in enumerate(step.qubits):
                out ^= ((dx >> q) & 1) << pos
                out ^= ((dz >> q) & 1) << (k + pos)
            dense[_pauli_index(out, k), _pauli_index(c, k)] += (upper - lower) * step.mult[e]
    return dense


def _library_channels():
    return [make_clifford(name) for name in CLIFFORD_NAMES] + [
        make_rotation(0.7), make_depolarizing(0.6), make_measure_z(),
        make_reset(t_state()), make_adaptive(make_rotation(0.9)),
        compose(make_depolarizing(0.8), make_rotation(math.pi / 4)),
        make_unitary_ptm(dense_u3()),
    ]


@pytest.mark.parametrize("direction", ["schrodinger", "heisenberg"])
def test_compiled_steps_decode_to_their_ptm(direction):
    placements = {1: (5,), 2: (6, 1), 3: (7, 2, 4)}
    for ptm in _library_channels():
        qubits = placements[ptm.k]
        circ = Circuit(8, FactoredState.of_qubit_states([zero_state()] * 8),
                       [ChannelApplication(ptm, qubits)], pauli_factor(8, {0: 3}))
        (step,) = compile_circuit(circ, direction).steps
        want = ptm.matrix if direction == "schrodinger" else ptm.matrix.T
        np.testing.assert_allclose(_decode_step(step), want, rtol=0, atol=1e-11)
        assert step.kills == (not step.mult.all())
        assert (step.flips_x, step.flips_z) == (bool(step.dx.any()), bool(step.dz.any()))
    # each start factor is drawn as a one-column step: its Pauli coefficients
    g = np.random.default_rng(9).standard_normal((8, 8, 2))
    g = g[..., 0] + 1j * g[..., 1]
    dense3 = DenseOperator(g @ g.conj().T / np.trace(g @ g.conj().T).real)
    factors = [((3,), zero_state()), ((0,), plus_state()), ((5,), t_state()),
               ((7,), h_state()), ((6, 1), golden_pair()), ((8, 2, 4), dense3)]
    state = FactoredState(9, factors)
    compiled = compile_circuit(Circuit(9, state, [], state), direction)
    assert compiled.steps == []
    assert len(compiled.start.factors) == len(factors)
    for step, (qubits, op) in zip(compiled.start.factors, factors):
        assert step.qubits == qubits
        np.testing.assert_allclose(_decode_step(step), op.coeffs[:, None],
                                   rtol=0, atol=1e-15)
