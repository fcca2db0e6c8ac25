import dataclasses
import gc
import math
import weakref

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
    DIRECTIONS,
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
    assert compiled.start == []
    assert compiled.const_coeff == 1.0
    # qubit q's PTM digit (I, X, Y, Z = 0..3) is bits 2q and 2q + 1 of the word
    assert compiled.const == (0b1111,)
    # -Z (x) 2X: the folded coefficient keeps the sign, times D = 1 * 2
    signed = FactoredState(2, [((0,), DenseOperator(-pauli_matrix(3, 1))),
                               ((1,), DenseOperator(2 * pauli_matrix(1, 1)))])
    compiled = compile_circuit(bell_circuit(signed), "heisenberg")
    assert (compiled.start, compiled.const_coeff) == ([], -2.0)
    assert compiled.const == (0b0111,)
    # qubits 32..63 fill a second word: Y on 31 and 63 set the sign bits
    word = pauli_factor(64, {31: 2, 32: 1, 33: 3, 63: 2})
    compiled = compile_circuit(Circuit(64, FactoredState.of_qubit_states([zero_state()] * 64),
                                       [], word), "heisenberg")
    assert compiled.start == []
    assert compiled.const == (0b10 << 62, 0b10 << 62 | 0b1100 | 0b1)


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
        *[((q,), one_q[rng.integers(4)]()) for q in range(4, n)],
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
    with pytest.raises(ValueError, match="sample count"):
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
    with pytest.raises(ValueError, match="delta"):
        hoeffding_epsilon(1.0, 100, delta)


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


def _clifford_round_trip(n, seed):
    """A random Clifford circuit followed by its inverse maps a Z word back to
    itself, so on |0...0> the exact value is 1, not 0."""
    rng = np.random.default_rng(seed)
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


def test_deep_wide_clifford_walk_returns_to_its_observable():
    _clifford_round_trip(32, 31)


def test_full_register_clifford_walk_returns_to_its_observable():
    # the same walk on all 64 qubits: gates straddle the two halves and
    # reach qubit 63
    _clifford_round_trip(64, 32)


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


def dense_three_qubit_state():
    """A fixed Hilbert-Schmidt random 3-qubit state."""
    g = np.random.default_rng(9).standard_normal((8, 8, 2))
    g = g[..., 0] + 1j * g[..., 1]
    return DenseOperator(g @ g.conj().T / np.trace(g @ g.conj().T).real)


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


# seeded (mean, sample_std) over two batches. An engine that decodes base-4
# PTM digits per step gives them bit for bit, because the code-indexed tables
# keep each column's outputs and the u -> slot rule
GOLDEN = {
    ("h", "schrodinger"): (-0.025497674834261005, 0.594345393942421),
    ("h", "heisenberg"): (-0.02480939124767229, 0.42726960049667034),
    ("cnot", "schrodinger"): (-0.044950895300088216, 0.8554735718843253),
    ("cnot", "heisenberg"): (-0.04278324594504411, 0.3805122048234821),
    ("noisy_t", "schrodinger"): (0.03851943592586597, 0.40387044769771513),
    ("noisy_t", "heisenberg"): (0.04103123507179103, 0.24536853793588495),
    ("zzz", "schrodinger"): (0.09009119286204209, 1.01823553966527),
    ("zzz", "heisenberg"): (0.10083326861726344, 0.5784164844248096),
    ("u3", "schrodinger"): (0.017524493086468113, 3.974137972380407),
    ("u3", "heisenberg"): (-0.0101938096751279, 2.2252188436621005),
    ("dead", "schrodinger"): (0.08338630693381821, 1.0794558369346339),
    ("dead", "heisenberg"): (0.08483474999999999, 0.40374782930031755),
}


@pytest.mark.parametrize("kind, direction", sorted(GOLDEN))
def test_golden_seeded_estimates(kind, direction):
    rep = estimate(golden_circuit(kind), direction, BATCH_SIZE + 4_464, seed=11)
    assert (rep.mean, rep.sample_std) == GOLDEN[kind, direction]


def wide_circuit():
    """64 qubits: two-qubit gates across the middle (31, 32) and at the top
    (62, 63), a dense unitary on (30, 33, 63), stochastic steps in both
    halves, and in both directions a fused finish run over qubits 28..35
    (qubit 27 sits in a pair factor, so the run starts at 28). The qubits no
    step touches hold |0> and |0><0|, so most lanes survive to the finish."""
    n = 64
    one_q = [zero_state, plus_state, h_state, t_state]
    touched = (5, 20, *range(28, 36), 40, 50, 62)
    inp = [((27, 36), golden_pair()), ((63, 0, 45), dense_three_qubit_state())]
    inp += [((q,), one_q[q % 4]() if q in touched else zero_state())
            for q in range(n) if q not in (0, 27, 36, 45, 63)]
    coeffs = np.zeros(16)
    coeffs[[0, 5, 10, 15]] = [0.25, 0.25, -0.25, 0.25]
    obs = [((44, 27), DenseOperator.from_coeffs(coeffs, 2))]
    obs += [((q,), DenseOperator.from_coeffs([0.5, 0.1, 0.2, 0.3], 1)
             if q in touched + (0, 36, 45, 63) else zero_state())
            for q in range(n) if q not in (27, 44)]
    noisy_t = compose(make_depolarizing(0.8), make_rotation(math.pi / 4))
    steps = [(make_clifford("h"), (q,)) for q in (31, 32, 63, 62, 30)]
    steps += [(make_clifford("cnot"), (31, 32)), (make_clifford("cz"), (62, 63)),
              (noisy_t, (5,)), (noisy_t, (40,)), (make_depolarizing(0.6), (31,)),
              (make_unitary_ptm(dense_u3()), (30, 33, 63)),
              (make_clifford("cz"), (32, 31)), (make_clifford("cnot"), (63, 62)),
              (make_rotation(0.3), (63,)), (make_measure_z(), (20,)),
              (make_reset(t_state()), (50,)), (make_clifford("s"), (32,)),
              (make_clifford("cnot"), (34, 29))]
    return Circuit(n, FactoredState(n, inp), [ChannelApplication(p, q) for p, q in steps],
                   FactoredState(n, obs))


# seeded (mean, sample_std) of wide_circuit over two batches
WIDE = {
    "schrodinger": (0.0001257102613577412, 0.04676916662403943),
    "heisenberg": (0.0002599901042910777, 0.11698477459790625),
}


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_wide_seeded_estimates(direction):
    rep = estimate(wide_circuit(), direction, BATCH_SIZE + 4_464, seed=13)
    assert (rep.mean, rep.sample_std) == WIDE[direction]


def _padded(circ, offset):
    """circ on qubits offset, offset + 1, ... of a 64-qubit register; the
    other qubits get |0> inputs and |0><0| observable factors. Their start
    draws come after the circuit's own, and their trace tables hold only
    0 and 1, so they change no product."""
    shift = lambda qubits: tuple(q + offset for q in qubits)
    rest = [q for q in range(64) if not offset <= q < offset + circ.n]

    def pad(state):
        return FactoredState(64, [(shift(qubits), op) for qubits, op in state.factors]
                             + [((q,), zero_state()) for q in rest])

    apps = [ChannelApplication(app.ptm, shift(app.qubits)) for app in circ.channels]
    return Circuit(64, pad(circ.input), apps, pad(circ.observable))


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_upper_half_relabelling_gives_equal_results(direction):
    # the same circuit on qubits 24..31 and on 56..63, the top of the lower
    # and the upper half of the register: every seeded figure matches exactly.
    # At this seed every run keeps live lanes (random circuits often die).
    rng = np.random.default_rng(67)
    for trial in range(3):
        circ = random_mixed_circuit(8, 40, rng)
        low = estimate(_padded(circ, 24), direction, 20_000, seed=trial)
        high = estimate(_padded(circ, 56), direction, 20_000, seed=trial)
        assert (low.mean, low.sample_std, low.epsilon) == (high.mean, high.sample_std,
                                                          high.epsilon)
        assert low.sample_std > 0.0


# a lane's Pauli string, as this test reads it: qubit q's PTM digit (I, X, Y,
# Z = 0..3) is bits 2 (q mod 32) and 2 (q mod 32) + 1 of word q // 32; a step's
# local code is the PTM index with qubit pos's digit at bits 2 pos and 2 pos + 1.
# A step's tables are read at the index its gather makes of a lane's word.


def _word_shift(q):
    return q // 32, 2 * (q % 32)


def _plan_index(qubits, terms):
    """index[c]: what the gather terms read from lane words holding local code
    c on qubits, after checking that it is one-to-one onto [0, 4^k) and the
    same whatever the lanes' other bits hold (qubit 63's top bit included)."""
    k = len(qubits)
    codes = np.arange(4**k, dtype=np.uint64)
    rng = np.random.default_rng(0)
    index = None
    for _ in range(3):
        words = rng.bit_generator.random_raw((2, 4**k))
        for pos, q in enumerate(qubits):
            word, shift = _word_shift(q)
            words[word] &= ~np.uint64(3 << shift)
            words[word] |= ((codes >> np.uint64(2 * pos)) & np.uint64(3)) << np.uint64(shift)
        got = propagation._gather_code(words, terms, np.empty(4**k, dtype=np.uint64),
                                       np.empty(4**k, dtype=np.uint64))
        if index is None:
            index = got.copy()
        np.testing.assert_array_equal(got, index)
    np.testing.assert_array_equal(np.sort(index), codes)
    return index.astype(np.intp)


def _step_index(step):
    return _plan_index(step.qubits, step.gather)


def _flipped_code(step, e):
    """The local code bits that entry e flips, read off the step's word
    deltas, after checking that no other register bit flips."""
    out = 0
    for word, delta in step.flips:
        bits = int(delta[e])
        for pos, q in enumerate(step.qubits):
            q_word, shift = _word_shift(q)
            if q_word == word:
                out |= ((bits >> shift) & 3) << (2 * pos)
                bits &= ~(3 << shift)
        assert bits == 0, (word, e)
    return out


def _decode_step(step):
    """Dense matrix whose column j is the expected output of Pauli j, read
    from the tables at the index the step's gather makes of j; a start step
    has the identity column alone."""
    k = len(step.qubits)
    columns, m = step.cum.shape[1], step.m
    index = _step_index(step)
    words = [word for word, _ in step.flips]
    assert words == sorted(set(words)) and all(delta.any() for _, delta in step.flips)
    assert step.kills == (not step.mult.all())
    assert len(step.mult) == columns * m
    dense = np.zeros((4**k, columns))
    for c in range(columns):
        i = index[c]
        assert i < columns  # a start step's identity column is read at index 0
        for slot in range(m):
            upper = 1.0 if slot == m - 1 else step.cum[slot, i]
            lower = 0.0 if slot == 0 else step.cum[slot - 1, i]
            e = i * m + slot
            out = c ^ _flipped_code(step, e)
            dense[out, c] += (upper - lower) * step.mult[e]
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
    # in the lower word, in the upper word (up to qubit 63's top bit), and
    # across the two, where each run of qubits is read by a gather term of its own
    placements = [{1: (5,), 2: (6, 1), 3: (7, 2, 4)},
                  {1: (63,), 2: (40, 41), 3: (61, 62, 63)},
                  {1: (32,), 2: (31, 32), 3: (33, 30, 32)}]
    for ptm in _library_channels():
        for qubits in (placement[ptm.k] for placement in placements):
            circ = Circuit(64, FactoredState.of_qubit_states([zero_state()] * 64),
                           [ChannelApplication(ptm, qubits)], pauli_factor(64, {0: 3}))
            (step,) = compile_circuit(circ, direction).steps
            want = ptm.matrix if direction == "schrodinger" else ptm.matrix.T
            np.testing.assert_allclose(_decode_step(step), want, rtol=0, atol=1e-11)
    # each start factor is drawn as a one-column step: its Pauli coefficients
    factors = [((3,), zero_state()), ((0,), plus_state()), ((5,), t_state()),
               ((7,), h_state()), ((6, 1), golden_pair()),
               ((8, 2, 4), dense_three_qubit_state()), ((40,), t_state()),
               ((33, 62), golden_pair()), ((63, 31, 32), dense_three_qubit_state())]
    covered = {q for qubits, _ in factors for q in qubits}
    factors += [((q,), h_state()) for q in range(64) if q not in covered]
    state = FactoredState(64, factors)
    compiled = compile_circuit(Circuit(64, state, [], state), direction)
    assert compiled.steps == []
    assert len(compiled.start) == len(factors)
    for step, (qubits, op) in zip(compiled.start, factors):
        assert step.qubits == qubits
        np.testing.assert_allclose(_decode_step(step), op.trace_table[:, None] / 2**op.k,
                                   rtol=0, atol=1e-15)


def test_cached_tables_keep_their_direction_and_are_read_only():
    # the same PTM objects compiled S -> H -> S with the cache warm: a cache
    # keyed without the direction would walk S^T where S is due
    state = FactoredState.of_qubit_states([t_state()] * 3)
    for direction in ("schrodinger", "heisenberg", "schrodinger"):
        for ptm in _library_channels():
            circ = Circuit(3, state, [ChannelApplication(ptm, (2, 0, 1)[:ptm.k])], state)
            compiled = compile_circuit(circ, direction)
            (step,) = compiled.steps
            want = ptm.matrix if direction == "schrodinger" else ptm.matrix.T
            np.testing.assert_allclose(_decode_step(step), want, rtol=0, atol=1e-11)
            m, cum, mult, flips = propagation._TABLES[ptm][direction]
            # the placed tables are the cached ones in the gather's index order,
            # and the cached ones themselves where that order is the PTM's
            index = _step_index(step)
            np.testing.assert_array_equal(step.cum[:, index], cum)
            np.testing.assert_array_equal(step.mult.reshape(-1, m)[index], mult.reshape(-1, m))
            if np.array_equal(index, np.arange(len(index))):
                assert step.cum is cum and step.mult is mult
            assert compile_circuit(circ, direction).steps[0] is step  # placed once
            steps = compiled.start + compiled.steps + compiled.finish
            for table in (cum, mult, flips, *(s.mult for s in steps),
                          *(delta for s in steps for _, delta in s.flips)):
                assert not table.flags.writeable


def _embedded(matrix, qubits, union):
    """matrix, a PTM on `qubits`, as the PTM on the qubits `union` (digit pos
    of an index is qubit union[pos]'s) that leaves the other digits alone."""
    places = [union.index(q) for q in qubits]
    size = 4 ** len(union)
    out = np.zeros((size, size))
    for c in range(size):
        rest = c
        local = 0
        for i, p in enumerate(places):
            local |= ((c >> (2 * p)) & 3) << (2 * i)
            rest &= ~(3 << (2 * p))
        for r in range(4 ** len(qubits)):
            row = rest
            for i, p in enumerate(places):
                row |= ((r >> (2 * i)) & 3) << (2 * p)
            out[row, c] += matrix[r, local]
    return out


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_clifford_runs_fuse_into_one_step(direction):
    # Clifford gates in one word, in the upper word (up to qubit 63) and across
    # the words (30..34), between a rotation, depolarizing and a measure_z.
    # Each joins the nearest group of Clifford gates it can, moving back only
    # past steps on other qubits, while the group has at most 5 qubits
    clifford = {name: make_clifford(name) for name in CLIFFORD_NAMES}
    rotation, depolarizing, measure = make_rotation(0.7), make_depolarizing(0.6), \
        make_measure_z()
    gates = [
        ("h", (3,)), ("cnot", (3, 5)), ("s", (5,)), ("cz", (7, 3)),             # 0-3
        (rotation, (5,)),                                                       # 4
        ("h", (63,)), ("cnot", (62, 63)), ("cz", (40, 63)), ("y", (41,)),       # 5-8
        (depolarizing, (41,)),                                                  # 9
        ("cnot", (31, 32)), ("h", (31,)), ("s", (32,)), ("cz", (30, 33)),       # 10-13
        ("x", (34,)),                                                           # 14
        ("cz", (35, 36)), ("h", (37,)), ("cnot", (38, 39)), ("s", (36,)),       # 15-18
        ("cnot", (39, 35)),                                                     # 19
        (measure, (36,)),                                                       # 20
        ("h", (0,)), ("cnot", (0, 1)), ("z", (1,)),                             # 21-23
    ]
    gates = [(clifford.get(ptm, ptm), qubits) for ptm, qubits in gates]
    # the gates of each step in walk order. Forward, h(63) and cnot(62, 63)
    # pass the rotation on 5 into the first group, h(37) opens a group for a
    # sixth qubit, and h(0) passes the measure_z on 36; backward, cnot(39, 35)
    # and cnot(38, 39) pass the measure_z into the first group, on {0, 1}
    groups = {
        "schrodinger": [[0, 1, 2, 3, 5, 6], [4], [7, 8, 10, 11, 12], [9],
                        [13, 14, 15, 18], [16, 17, 19, 21], [20], [22, 23]],
        "heisenberg": [[23, 22, 21, 19, 17], [20], [18, 16, 15, 14, 12], [13, 11, 10],
                       [9], [8, 7, 6, 5], [4], [3, 2, 1, 0]],
    }[direction]
    assert sorted(i for group in groups for i in group) == list(range(len(gates)))
    runs = [[gates[i] for i in group] for group in groups]
    state = FactoredState.of_qubit_states([zero_state()] * 64)
    circ = Circuit(64, state, [ChannelApplication(ptm, q) for ptm, q in gates], state)
    steps = compile_circuit(circ, direction).steps
    assert [step.qubits for step in steps] == [
        tuple(sorted({q for _, qubits in run for q in qubits})) for run in runs]
    for step, run in zip(steps, runs):
        if len(run) == 1:  # a run of one is the cached step itself
            (ptm, qubits), = run
            assert step is propagation._TABLES[ptm][direction, qubits]
            continue
        want = np.eye(4 ** len(step.qubits))
        for ptm, qubits in run:
            r = ptm.matrix if direction == "schrodinger" else ptm.matrix.T
            want = _embedded(r, qubits, list(step.qubits)) @ want
        assert step.m == 1 and not step.kills
        np.testing.assert_array_equal(_decode_step(step), want)
        assert not step.mult.flags.writeable
        assert all(not delta.flags.writeable for _, delta in step.flips)
    # a one-gate circuit compiles to the cached step
    one = Circuit(64, state, [ChannelApplication(clifford["h"], (63,))], state)
    (step,) = compile_circuit(one, direction).steps
    assert step is propagation._TABLES[clifford["h"]][direction, (63,)]


def _walk_groups(gates, direction):
    """The qubits of each compiled step of a 9-qubit circuit whose walk meets
    `gates` in the order given, in either direction."""
    state = FactoredState.of_qubit_states([zero_state()] * 9)
    apps = [ChannelApplication(ptm, q) for ptm, q in gates]
    circ = Circuit(9, state, apps if direction == "schrodinger" else apps[::-1], state)
    return [step.qubits for step in compile_circuit(circ, direction).steps]


@pytest.mark.parametrize("direction", DIRECTIONS)
@pytest.mark.parametrize("between", [make_rotation(0.7), make_measure_z()],
                         ids=["rotation", "measure_z"])
def test_clifford_gates_hop_back_only_past_other_qubits(direction, between):
    h, cnot = make_clifford("h"), make_clifford("cnot")
    # h(0) passes the step on 1 into the group of cnot(0, 2)
    assert _walk_groups([(cnot, (0, 2)), (between, (1,)), (h, (0,))], direction) == \
        [(0, 2), (1,)]
    assert _walk_groups([(cnot, (0, 2)), (between, (1,)), (h, (3,))], direction) == \
        [(0, 2, 3), (1,)]
    # a gate on a qubit of the step between them never passes it; one on the
    # group's other qubit does
    assert _walk_groups([(cnot, (0, 2)), (between, (0,)), (h, (0,))], direction) == \
        [(0, 2), (0,), (0,)]
    assert _walk_groups([(cnot, (0, 2)), (between, (0,)), (h, (2,))], direction) == \
        [(0, 2), (0,)]
    assert _walk_groups([(cnot, (0, 2)), (between, (1,)), (cnot, (1, 0))], direction) == \
        [(0, 2), (1,), (1, 0)]


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_clifford_gates_join_the_group_they_grow_least(direction):
    h, cnot = make_clifford("h"), make_clifford("cnot")
    # cnot(4, 5) would make six qubits, so it opens a group; h(0) grows the
    # first group by nothing, h(6) ties and takes the earlier group, and h(7)
    # finds that one full
    gates = [(cnot, (0, 1)), (cnot, (2, 3)), (cnot, (4, 5)), (h, (0,)), (h, (6,)), (h, (7,))]
    assert _walk_groups(gates, direction) == [(0, 1, 2, 3, 6), (4, 5, 7)]


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_clifford_gates_join_no_group_past_the_window(direction):
    h, rotation = make_clifford("h"), make_rotation(0.7)
    window = propagation._FUSE_WINDOW
    # h(2) joins h(0) across window - 1 groups, but not across window groups
    gates = [(h, (0,))] + [(rotation, (1,))] * (window - 1) + [(h, (2,))]
    assert _walk_groups(gates, direction) == [(0, 2)] + [(1,)] * (window - 1)
    gates = [(h, (0,))] + [(rotation, (1,))] * window + [(h, (2,))]
    assert _walk_groups(gates, direction) == [(0,)] + [(1,)] * window + [(2,)]


def _random_clifford_noise_circuit(n, rng):
    """60 channels on 7 random qubits of n: Clifford gates, with depolarizing,
    noisy T, rotations and a rare measure_z between them. Inputs and
    observable factors have no zero Pauli coefficient, so lanes live on."""
    active = [int(q) for q in rng.choice(n, size=7, replace=False)]
    noisy = lambda: compose(make_depolarizing(rng.uniform(0.7, 0.95)),
                            make_rotation(math.pi / 4))
    apps = []
    for _ in range(60):
        kind = rng.random()
        if kind < 0.25:
            pair = tuple(int(q) for q in rng.choice(active, size=2, replace=False))
            apps.append(ChannelApplication(make_clifford(("cnot", "cz")[rng.integers(2)]),
                                           pair))
            continue
        q = (int(rng.choice(active)),)
        if kind < 0.6:
            ptm = make_clifford(("h", "s", "x", "y", "z")[rng.integers(5)])
        elif kind < 0.8:
            ptm = make_depolarizing(rng.uniform(0.7, 0.95))
        elif kind < 0.9:
            ptm = noisy()
        elif kind < 0.98:
            ptm = make_rotation(rng.uniform(0, 2 * math.pi))
        else:
            ptm = make_measure_z()
        apps.append(ChannelApplication(ptm, q))
    bloch = lambda: rng.choice([-1, 1], size=3) * rng.uniform(0.1, 0.25, size=3)
    inp = FactoredState.of_qubit_states(
        [DenseOperator.from_coeffs([0.5, *bloch()], 1) for _ in range(n)])
    obs = FactoredState.of_qubit_states(
        [DenseOperator.from_coeffs(rng.uniform(0.1, 0.5, size=4), 1) for _ in range(n)])
    return Circuit(n, inp, apps, obs)


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_fused_walks_equal_step_by_step_walks(direction):
    # a batch walked through the fused steps gives the same (sum, sum of
    # squares), bit for bit, as one walked through the unfused cached steps
    rng = np.random.default_rng(2101)
    for n in (8, 33, 64):
        for trial in range(4):
            circ = _random_clifford_noise_circuit(n, rng)
            compiled = compile_circuit(circ, direction)
            apps = circ.channels if direction == "schrodinger" else circ.channels[::-1]
            unfused = dataclasses.replace(compiled, steps=[
                propagation._cached_step(
                    app.ptm, direction,
                    app.ptm.matrix if direction == "schrodinger" else app.ptm.matrix.T,
                    app.qubits)
                for app in apps])
            assert len(compiled.steps) < len(unfused.steps)
            fused = propagation._run_batch(compiled, 4096, np.random.default_rng(trial))
            plain = propagation._run_batch(unfused, 4096, np.random.default_rng(trial))
            assert fused == plain, (n, trial)
            assert fused[1] > 0.0


def _deep_clifford_circuit(n, rng):
    """400 channels on n qubits: acceptance 5's Clifford mix, with 3
    depolarizing, 3 noisy T and 2 measure_z steps at random places on random
    qubits. Inputs and observable factors have no zero Pauli coefficient."""
    apps = []
    for _ in range(400):
        if rng.random() < 0.3:
            gate = ("cnot", "cz")[rng.integers(2)]
            qubits = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
        else:
            gate = ("h", "s", "x", "y", "z")[rng.integers(5)]
            qubits = (int(rng.integers(n)),)
        apps.append(ChannelApplication(make_clifford(gate), qubits))
    noisy = [make_depolarizing(0.8)] * 3 + \
        [compose(make_depolarizing(0.9), make_rotation(math.pi / 4))] * 3 + [make_measure_z()] * 2
    for ptm, at in zip(noisy, rng.choice(400, size=len(noisy), replace=False)):
        apps[at] = ChannelApplication(ptm, (int(rng.integers(n)),))
    bloch = lambda: rng.choice([-1, 1], size=3) * rng.uniform(0.1, 0.25, size=3)
    inp = FactoredState.of_qubit_states(
        [DenseOperator.from_coeffs([0.5, *bloch()], 1) for _ in range(n)])
    obs = FactoredState.of_qubit_states(
        [DenseOperator.from_coeffs(rng.uniform(0.1, 0.5, size=4), 1) for _ in range(n)])
    return Circuit(n, inp, apps, obs)


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_groups_fused_out_of_order_walk_equal_to_step_by_step(direction, monkeypatch):
    # as above, on deep circuits where Clifford gates move back past steps on
    # other qubits to join a group
    runs = []
    real_fused = propagation._fused
    monkeypatch.setattr(propagation, "_fused",
                        lambda run, qubits: runs.append(run) or real_fused(run, qubits))
    rng = np.random.default_rng(2401)
    for n in (32, 64):
        for trial in range(2):
            circ = _deep_clifford_circuit(n, rng)
            runs.clear()
            compiled = compile_circuit(circ, direction)
            apps = circ.channels if direction == "schrodinger" else circ.channels[::-1]
            plain_steps = [
                propagation._cached_step(
                    app.ptm, direction,
                    app.ptm.matrix if direction == "schrodinger" else app.ptm.matrix.T,
                    app.qubits)
                for app in apps]
            unfused = dataclasses.replace(compiled, steps=plain_steps)
            # some fused group is no slice of the walk: it took a step out of order
            walk = [id(st) for st in plain_steps]
            assert any(all(walk[i:i + len(run)] != [id(st) for st in run]
                           for i in range(len(walk)))
                       for run in runs), (n, trial)
            fused = propagation._run_batch(compiled, 4096, np.random.default_rng(trial))
            plain = propagation._run_batch(unfused, 4096, np.random.default_rng(trial))
            assert fused == plain, (n, trial)
            assert fused[1] > 0.0


def test_table_cache_lets_its_ptms_go():
    state = FactoredState.of_qubit_states([zero_state()] * 2)
    compile_circuit(Circuit(2, state, [], state), "heisenberg")
    gc.collect()
    before = len(propagation._TABLES)
    ptms = [make_rotation(0.001 * i) for i in range(1000)]
    for ptm in ptms:
        compile_circuit(Circuit(2, state, [ChannelApplication(ptm, (1,))], state), "heisenberg")
    assert len(propagation._TABLES) == before + 1000
    del ptms, ptm
    gc.collect()
    assert len(propagation._TABLES) == before
    # fused finish runs are keyed by content, so that cache has a fixed size
    for i in range(10):
        obs = FactoredState.of_qubit_states([DenseOperator.from_coeffs([1, 0, 0, 0.1 * i], 1)] * 2)
        compile_circuit(Circuit(2, state, [], obs), "schrodinger")
    info = propagation._fused_finish.cache_info()
    assert info.currsize == info.maxsize == propagation._FINISH_CACHE_SIZE


def test_clifford_walks_equal_their_nonzero_exact_values():
    """Acceptance 5's gate mix on 8 qubits, S included, with Pauli
    observables, kept when the exact value is +-1. The Heisenberg walk is
    deterministic and equals it; a Schrodinger sample draws |0><0| = (I + Z)/2
    per qubit, so each one is 0 or exactly 2^8 times the value."""
    n = 8
    rng = np.random.default_rng(2024)
    paulis = [DenseOperator(pauli_matrix(i, 1)) for i in range(4)]
    start = FactoredState.of_qubit_states([zero_state()] * n)
    kept = []
    for _ in range(36):
        channels, gates = [], set()
        for _ in range(24):
            if rng.random() < 0.3:
                a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
                gate = "cnot" if rng.random() < 0.5 else "cz"
                qubits = (a, b)
            else:
                gate = ("h", "s", "x", "y", "z")[int(rng.integers(5))]
                qubits = (int(rng.integers(n)),)
            channels.append(ChannelApplication(make_clifford(gate), qubits))
            gates.add(gate)
        letters = [0 if rng.random() < 0.75 else int(rng.integers(1, 4)) for _ in range(n)]
        circ = Circuit(n, start, channels, FactoredState.of_qubit_states(
            [paulis[i] for i in letters]))
        value = run_exact(circ)
        if abs(abs(value) - 1) < 1e-9:
            kept.append((circ, round(value), gates))
    assert len(kept) >= 5 and {value for _, value, _ in kept} == {1, -1}
    assert any("s" in gates for _, _, gates in kept)
    for circ, value, _ in kept:
        rep = estimate(circ, "heisenberg", 1000, seed=3)
        assert rep.mean == value and rep.sample_std == 0.0
        total, total_sq = propagation._run_batch(compile_circuit(circ, "schrodinger"),
                                                 1 << 14, np.random.default_rng(5))
        assert total != 0 and total_sq == 2**n * value * total


def _finish_table(step):
    """A finish step's multipliers in PTM index order, each read at the index
    the step's gather makes of its code, after checking that the step draws
    nothing and flips no bits."""
    k = len(step.qubits)
    assert step.m == 1 and step.cum.shape == (0, 4**k) and step.flips == ()
    assert step.kills == (not step.mult.all())
    return step.mult[_step_index(step)]


@pytest.mark.parametrize("direction", ["schrodinger", "heisenberg"])
def test_compiled_finish_steps_decode_to_their_factors(direction):
    # singles on 0..8 (a run of 9, split 8 + 1), 10, 12-13, 15-16 and 18:
    # runs split by gaps; a pair on (9, 11) and a triple on (19, 14, 17).
    # Singles on 20..63 make runs of 8, one across the words (28..35) and
    # one that ends at qubit 63
    one_q = [zero_state, plus_state, h_state, t_state, maximally_mixed]
    singles = {q: one_q[q % 5]() for q in (*range(9), 10, 12, 13, 15, 16, 18, *range(20, 64))}
    multi = [((9, 11), golden_pair()), ((19, 14, 17), dense_three_qubit_state())]
    state = FactoredState(64, [((q,), op) for q, op in singles.items()] + multi)
    finish = compile_circuit(Circuit(64, state, [], state), direction).finish
    runs = [tuple(range(8)), (8,), (10,), (12, 13), (15, 16), (18,),
            *(tuple(range(q, q + 8)) for q in range(20, 60, 8)), (60, 61, 62, 63)]
    assert [step.qubits for step in finish] == runs + [qubits for qubits, _ in multi]
    for step in finish[:len(runs)]:
        index = np.arange(4 ** len(step.qubits))
        want = np.ones(len(index))
        for pos, q in enumerate(step.qubits):
            want *= singles[q].trace_table[(index >> (2 * pos)) & 3]
        np.testing.assert_allclose(_finish_table(step), want, rtol=1e-14, atol=0)
    for step, (_, op) in zip(finish[len(runs):], multi):
        np.testing.assert_array_equal(_finish_table(step), op.trace_table)


def _plan_tuples():
    """Qubit tuples of k = 1..5 in word 0, in word 1, across qubits 31/32 and
    on qubit 63, in random order, plus runs of 8 as the finish fuses them."""
    rng = np.random.default_rng(2501)
    for k in range(1, 6):
        for _ in range(30):
            yield tuple(int(q) for q in rng.choice(32, size=k, replace=False))
            yield tuple(int(q) for q in 32 + rng.choice(32, size=k, replace=False))
            for must in ((31, 32), (63,)):
                if len(must) <= k:
                    rest = [q for q in range(64) if q not in must]
                    qubits = [*must, *(int(q) for q in rng.choice(rest, size=k - len(must),
                                                                  replace=False))]
                    yield tuple(int(q) for q in rng.permutation(qubits))
    for first in (0, 20, 28, 56):
        yield tuple(range(first, first + 8))


def test_gather_plans_read_a_one_to_one_index():
    one_term = multi_run = 0
    for qubits in _plan_tuples():
        terms, codes = propagation._gather_plan(qubits)
        index = _plan_index(qubits, terms)  # one-to-one, and blind to other bits
        if codes is None:
            np.testing.assert_array_equal(index, np.arange(len(index)))
        else:
            np.testing.assert_array_equal(codes[index], np.arange(len(index)))
        # one term per run of qubits in qubit order: a shift, or a multiply by 2^s
        runs = {(q // 32, q % 32 - pos) for pos, q in enumerate(qubits)}
        per_run = len(terms) == len(runs) and codes is None and all(
            mult & (mult - 1) == 0 and (mult == 1 or shift == 0) for _, _, mult, shift in terms)
        if len({q // 32 for q in qubits}) > 1 or len(qubits) > propagation._FUSE_QUBITS:
            assert per_run, qubits
        elif len(runs) > 1:
            multi_run += 1
            if len(terms) == 1:
                one_term += 1
                ((word, mask, mult, shift),) = terms
                assert shift == 64 - 2 * len(qubits)
                assert mask == sum(3 << (2 * (q % 32)) for q in qubits)
            else:
                assert per_run, qubits  # no run order gave a one-to-one index
    # most steps in one word are read by one multiply
    assert one_term >= 0.8 * multi_run


def _multi_qubit_noise_circuit(n, rng):
    """_random_clifford_noise_circuit with a ZZZ rotation, a three-qubit
    stochastic step, on a random triple of its qubits after every tenth
    channel, and a two-qubit input and observable factor on a random pair."""
    circ = _random_clifford_noise_circuit(n, rng)
    active = sorted({q for app in circ.channels for q in app.qubits})
    zzz = make_unitary_ptm(_zzz_rotation(math.pi / 8))
    apps = []
    for i, app in enumerate(circ.channels):
        apps.append(app)
        if i % 10 == 9:
            triple = tuple(int(q) for q in rng.choice(active, size=3, replace=False))
            apps.append(ChannelApplication(zzz, triple))
    pair = tuple(int(q) for q in rng.choice(active, size=2, replace=False))

    def with_pair(state):
        return FactoredState(n, [(pair, golden_pair())] + [
            (qubits, op) for qubits, op in state.factors if qubits[0] not in pair])

    return Circuit(n, with_pair(circ.input), apps, with_pair(circ.observable))


@pytest.mark.parametrize("direction", DIRECTIONS)
def test_multiply_gathers_walk_equal_to_per_run_gathers(direction, monkeypatch):
    # a batch walked through steps read by one multiply, with their tables
    # laid out in its index order, gives the same (sum, sum of squares), bit
    # for bit, as one walked through steps read by one term per run
    rng = np.random.default_rng(2502)
    circuits = [_multi_qubit_noise_circuit(n, rng) for n in (8, 33, 64) for _ in range(3)]
    multiplied = [compile_circuit(circ, direction) for circ in circuits]
    propagation._gather_plan.cache_clear()
    monkeypatch.setattr(propagation, "_fields", lambda runs, top: None)
    monkeypatch.setattr(propagation, "_TABLES", weakref.WeakKeyDictionary())
    try:
        per_run = [compile_circuit(circ, direction) for circ in circuits]
    finally:
        propagation._gather_plan.cache_clear()

    def steps(compiled):
        return compiled.start + compiled.steps + compiled.finish

    for a, b in zip(multiplied, per_run):
        assert [st.qubits for st in steps(a)] == [st.qubits for st in steps(b)]
    assert all(len(st.gather) == len({(q // 32, q % 32 - pos) for pos, q in enumerate(st.qubits)})
               for compiled in per_run for st in steps(compiled))
    pairs = [(sa, sb) for a, b in zip(multiplied, per_run) for sa, sb in zip(steps(a), steps(b))]
    multiply = [sa for sa, sb in pairs if len(sa.gather) < len(sb.gather)]
    assert any(st.m > 1 for st in multiply)  # a ZZZ rotation
    assert any(not st.permutes and st.m == 1 for st in multiply)  # a finish factor
    assert any(sa.kills for sa, _ in pairs)  # a measure_z
    for trial, (a, b) in enumerate(zip(multiplied, per_run)):
        walked = propagation._run_batch(a, 4096, np.random.default_rng(trial))
        assert walked == propagation._run_batch(b, 4096, np.random.default_rng(trial)), trial
        assert walked[1] > 0.0


def test_batches_reuse_their_arrays_and_let_them_go(monkeypatch):
    circ = _multi_qubit_noise_circuit(33, np.random.default_rng(2503))
    compiled = compile_circuit(circ, "schrodinger")
    propagation._run_batch(compiled, 5000, np.random.default_rng(0))
    scratch = compiled.scratch
    # a shorter batch walks the front of the same arrays, as a fresh one would
    short = propagation._run_batch(compiled, 1000, np.random.default_rng(1))
    assert compiled.scratch is scratch
    assert short == propagation._run_batch(compile_circuit(circ, "schrodinger"), 1000,
                                           np.random.default_rng(1))
    # estimate's compiled circuit, and with it the arrays, go when it returns
    made = []
    real = propagation.compile_circuit

    def compile_and_track(*args):
        compiled = real(*args)
        made.append(weakref.ref(compiled))
        return compiled

    monkeypatch.setattr(propagation, "compile_circuit", compile_and_track)
    estimate(circ, "schrodinger", BATCH_SIZE + 10, seed=4)
    gc.collect()
    assert len(made) == 1 and made[0]() is None
