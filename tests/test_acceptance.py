"""End-to-end acceptance checks for the estimator, the norm machinery and the
census/QAOA harnesses. Each test prints exactly one verdict line so the
checks can be scraped from a log independently of the pytest summary."""

import math
import time

import numpy as np
import pytest

from pauliprop.channels import (
    PTM,
    ChannelApplication,
    adaptive_norms,
    adjoint,
    adjoint_norm,
    channel_norm,
    choi_matrix,
    compose,
    make_adaptive,
    make_clifford,
    make_depolarizing,
    make_measure_z,
    make_reset,
    make_rotation,
    postselection_probability,
    ptm_from_choi,
)
from pauliprop.exact import kraus_to_ptm, run_exact
from pauliprop.fanout import block_rng
from pauliprop.magic import (
    CENSUS_BLOCK,
    classification_census,
    classify_ptms,
    csh_boundary_f,
    enumerate_stabilizer_states,
    robustness,
    sample_hilbert_schmidt,
    state_census,
)
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
from pauliprop.propagation import Circuit, compile_circuit, cost_report, estimate, plan_samples
from pauliprop.qaoa import (
    QaoaParams,
    generate_instance,
    run_experiment,
)

from dense import apply_kraus, exact_expectation


def _verdict(num: int | str, ok: bool, detail: str) -> None:
    word = "PASS" if ok else "FAIL"
    print(f"acceptance {num}: {word} ({detail})", flush=True)
    assert ok, f"acceptance {num}: {detail}"


def test_acceptance_1_norm_closed_form_grid():
    """channel_norm(depolarize(f) o rotation(theta)) equals
    max(1, f|cos| + f|sin|) across a 100x100 parameter grid."""
    fs = np.linspace(0.0, 1.0, 100)
    thetas = np.linspace(0.0, 2.0 * math.pi, 100)
    t0 = time.perf_counter()
    rotations = [make_rotation(float(t)) for t in thetas]
    worst = 0.0
    for f in fs:
        dep = make_depolarizing(float(f))
        for theta, rot in zip(thetas, rotations):
            got = channel_norm(compose(dep, rot))
            want = max(1.0, f * (abs(math.cos(theta)) + abs(math.sin(theta))))
            worst = max(worst, abs(got - want))
    wall = time.perf_counter() - t0
    ok = worst <= 1e-10 and wall < 1.0
    _verdict(1, ok, f"max deviation {worst:.1e}, wall {wall:.2f}s")


def test_acceptance_2_t_gate_thresholds():
    """The noisy-T forward norm crosses 1 at f = 2^-1/2; the Choi state stays
    a stabilizer mixture up to f near 0.551."""
    t0 = time.perf_counter()
    theta = math.pi / 4

    def excess(f: float) -> float:
        return channel_norm(compose(make_depolarizing(f), make_rotation(theta))) - 1.0

    lo, hi = 0.5, 1.0  # excess(lo) < 0 < excess(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    crossing_dev = abs(0.5 * (lo + hi) - 2.0 ** -0.5)
    boundary = csh_boundary_f()
    wall = time.perf_counter() - t0
    ok = crossing_dev <= 1e-9 and abs(boundary - 0.551) <= 0.01 and wall < 60.0
    _verdict(2, ok, f"norm crossing dev {crossing_dev:.1e}, "
                    f"CSH boundary f={boundary:.4f}, wall {wall:.1f}s")


def _random_hermitian(dim: int, rng: np.random.Generator) -> DenseOperator:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return DenseOperator(g + g.conj().T)


def test_acceptance_3_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)

    # every Pauli string has unit stabilizer norm
    pauli_dev = 0.0
    for k in (1, 2, 3):
        for i in range(4 ** k):
            d = DenseOperator(pauli_matrix(i, k)).stabilizer_norm
            pauli_dev = max(pauli_dev, abs(d - 1.0))

    # all 66 enumerated pure stabilizer states have unit norm
    stab_dev = 0.0
    n_states = 0
    for n in (1, 2):
        for t in enumerate_stabilizer_states(n).T:
            s = DenseOperator.from_coeffs(t / 2**n, n)
            stab_dev = max(stab_dev, abs(s.stabilizer_norm - 1.0))
            n_states += 1

    # multiplicativity over tensor factors
    mult_dev = 0.0
    for trial in range(200):
        a = _random_hermitian(2, rng)
        b = _random_hermitian(2 if trial % 2 else 4, rng)
        joint = DenseOperator(np.kron(b.matrix, a.matrix))
        mult_dev = max(mult_dev, abs(
            joint.stabilizer_norm - a.stabilizer_norm * b.stabilizer_norm))

    # the stabilizer norm never exceeds robustness
    violations = 0
    for _ in range(1000):
        rho = sample_hilbert_schmidt(2, rng)
        if rho.stabilizer_norm > robustness(rho) + 1e-6:
            violations += 1

    # reset channels have unit adjoint norm for any target state
    reset_dev = 0.0
    for trial in range(100):
        rho = sample_hilbert_schmidt(1 if trial % 4 else 2, rng)
        reset_dev = max(reset_dev, abs(adjoint_norm(make_reset(rho)) - 1.0))

    # adaptive closed forms against brute-force norms of the lifted PTM
    adapt_dev = 0.0
    for _ in range(50):
        inner = ptm_from_choi(sample_hilbert_schmidt(2, rng).matrix)
        closed_fwd, closed_adj = adaptive_norms(inner)
        lifted = make_adaptive(inner)
        adapt_dev = max(adapt_dev,
                        abs(closed_fwd - channel_norm(lifted)),
                        abs(closed_adj - adjoint_norm(lifted)))

    wall = time.perf_counter() - t0
    ok = (pauli_dev <= 1e-9 and stab_dev <= 1e-9 and n_states == 66
          and mult_dev <= 1e-9 and violations == 0
          and reset_dev <= 1e-10 and adapt_dev <= 1e-10)
    _verdict(3, ok, f"pauli {pauli_dev:.1e}, stab({n_states}) {stab_dev:.1e}, "
                    f"mult {mult_dev:.1e}, norm<=R violations {violations}/1000, "
                    f"reset {reset_dev:.1e}, adaptive {adapt_dev:.1e}, wall {wall:.1f}s")


_PAULI_1Q = [DenseOperator(pauli_matrix(i, 1)) for i in range(4)]


def _random_mixed_circuit(n: int, rng: np.random.Generator):
    """One draw; the caller rejects on cost. Returns (circuit, kinds_used)."""
    qubit_states = []
    magic_left = 1
    for _ in range(n):
        r = rng.random()
        if r < 0.15 and magic_left:
            magic_left -= 1
            qubit_states.append(t_state() if rng.random() < 0.5 else h_state())
        elif r < 0.55:
            qubit_states.append(zero_state())
        elif r < 0.85:
            qubit_states.append(plus_state())
        else:
            qubit_states.append(maximally_mixed(1))

    channels = []
    kinds = set()
    t_left, reset_left = 1, 1
    for _ in range(int(rng.integers(4, 13))):
        kind = int(rng.integers(6))
        q = int(rng.integers(n))
        if kind == 0 and n >= 2:
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            gate = "cnot" if rng.random() < 0.5 else "cz"
            channels.append(ChannelApplication(make_clifford(gate), (a, b)))
            kinds.add("clifford")
        elif kind == 1:
            gate = ("h", "s", "x", "z")[int(rng.integers(4))]
            channels.append(ChannelApplication(make_clifford(gate), (q,)))
            kinds.add("clifford")
        elif kind == 2 and t_left:
            t_left -= 1
            channels.append(ChannelApplication(make_rotation(math.pi / 4), (q,)))
            kinds.add("t")
        elif kind == 3:
            f = float(rng.uniform(0.5, 1.0))
            channels.append(ChannelApplication(make_depolarizing(f), (q,)))
            kinds.add("depolarize")
        elif kind == 4 and reset_left:
            reset_left -= 1
            bloch = rng.uniform(-0.25, 0.25, size=3)
            mat = 0.5 * (np.eye(2, dtype=complex)
                         + bloch[0] * pauli_matrix(1, 1)
                         + bloch[1] * pauli_matrix(2, 1)
                         + bloch[2] * pauli_matrix(3, 1))
            channels.append(ChannelApplication(make_reset(DenseOperator(mat)), (q,)))
            kinds.add("reset")
        else:
            channels.append(ChannelApplication(make_measure_z(), (q,)))
            kinds.add("measure")

    observable = FactoredState(n, [
        ((q,), _PAULI_1Q[int(rng.integers(4))]) for q in range(n)])
    circuit = Circuit(n, FactoredState.of_qubit_states(qubit_states),
                      channels, observable)
    return circuit, kinds


@pytest.mark.slow
def test_acceptance_4_estimator_oracle_equivalence():
    """100 random mixed-channel circuits, both directions, sample counts
    planned for epsilon = delta = 0.05; at least 90 per direction must land
    within epsilon of the dense oracle."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    hits = {"schrodinger": 0, "heisenberg": 0}
    kinds_seen = set()
    for i in range(100):
        n = 2 + i % 4
        for _ in range(200):
            circuit, kinds = _random_mixed_circuit(n, rng)
            # keep the planned sample counts affordable: the observable trace
            # bound alone contributes 2^n in the forward direction
            if (cost_report(circuit, "schrodinger").total_bound <= 1.8 * 2 ** n
                    and cost_report(circuit, "heisenberg").total_bound <= 4.0):
                break
        else:
            raise AssertionError("rejection sampling failed to find a circuit")
        kinds_seen |= kinds
        exact = run_exact(circuit)
        for direction in ("schrodinger", "heisenberg"):
            planned = plan_samples(circuit, direction, 0.05, 0.05)
            rep = estimate(circuit, direction, planned, seed=1000 + i, workers=1)
            if abs(rep.mean - exact) <= 0.05:
                hits[direction] += 1
    wall = time.perf_counter() - t0
    ok = (hits["schrodinger"] >= 90 and hits["heisenberg"] >= 90
          and kinds_seen == {"clifford", "t", "depolarize", "reset", "measure"}
          and wall < 600.0)
    _verdict(4, ok, f"within epsilon: schrodinger {hits['schrodinger']}/100, "
                    f"heisenberg {hits['heisenberg']}/100, wall {wall:.0f}s")


def _random_clifford_circuit(n: int, k: int, rng: np.random.Generator) -> Circuit:
    channels = []
    for _ in range(k):
        if rng.random() < 0.3:
            a, b = (int(v) for v in rng.choice(n, size=2, replace=False))
            gate = "cnot" if rng.random() < 0.5 else "cz"
            channels.append(ChannelApplication(make_clifford(gate), (a, b)))
        else:
            gate = ("h", "s", "x", "y", "z")[int(rng.integers(5))]
            channels.append(ChannelApplication(make_clifford(gate),
                                               (int(rng.integers(n)),)))
    inputs = FactoredState.of_qubit_states([zero_state() for _ in range(n)])
    observable = FactoredState(n, [
        ((q,), _PAULI_1Q[int(rng.integers(1, 4))]) for q in range(n)])
    return Circuit(n, inputs, channels, observable)


@pytest.mark.slow
def test_acceptance_5_clifford_fast_path():
    """Clifford walks are deterministic (zero sample variance) and the
    per-sample cost grows linearly with gate count."""
    rng = np.random.default_rng(7)
    n, n_samples = 32, 1_000_000
    circuits = {k: _random_clifford_circuit(n, k, rng) for k in (100, 200, 400)}

    t0 = time.perf_counter()
    rep = estimate(circuits[100], "heisenberg", n_samples, seed=5, workers=1)
    base_wall = time.perf_counter() - t0
    zero_variance = rep.sample_std == 0.0

    # best of 3 per depth, timed round-robin (100, 200, 400, then again), so
    # that a slow spell of the host falls on every depth rather than one
    walls = {k: math.inf for k in circuits}
    for run in range(3):
        for k, circuit in circuits.items():
            t1 = time.perf_counter()
            estimate(circuit, "heisenberg", n_samples, seed=5, workers=1)
            walls[k] = min(walls[k], time.perf_counter() - t1)
    slope = float(np.polyfit(np.log(list(walls)), np.log(list(walls.values())), 1)[0])

    ok = zero_variance and base_wall < 30.0 and 0.85 <= slope <= 1.15
    _verdict(5, ok, f"sample std {rep.sample_std}, 1e6 samples at k=100 in "
                    f"{base_wall:.2f}s, depth-scaling exponent {slope:.3f}")


def test_acceptance_5_step_work_is_linear_in_depth():
    """Acceptance 5's depth scaling without the host's timing noise: on its
    own circuits, the array passes a batch makes per walk (a gather term
    each, the mult, a flip row per word, a cum row per extra slot) grow
    linearly with gate count."""
    rng = np.random.default_rng(7)
    circuits = {k: _random_clifford_circuit(32, k, rng) for k in (100, 200, 400)}
    work = {}
    for k, circuit in circuits.items():
        compiled = compile_circuit(circuit, "heisenberg")
        work[k] = sum(len(st.gather) + 1 + len(st.flips) + (st.m - 1)
                      for st in compiled.start + compiled.steps + compiled.finish)
    slope = math.log(work[400] / work[100]) / math.log(4)
    _verdict("5b", 0.9 <= slope <= 1.1,
             f"array passes {work[100]}/{work[200]}/{work[400]} at k=100/200/400, "
             f"depth-scaling exponent {slope:.3f}")


@pytest.mark.slow
def test_acceptance_6_state_census():
    """Two-qubit Hilbert-Schmidt census: stabilizer mixtures are rare while
    mixtures plus hyper-octahedral states cover more than half."""
    t0 = time.perf_counter()
    state_census(10_000, n=2, seed=11, workers=1)
    smoke_wall = time.perf_counter() - t0

    t1 = time.perf_counter()
    counts = state_census(100_000, n=2, seed=11, workers=1)
    full_wall = time.perf_counter() - t1

    total = sum(counts.values())
    stab = counts["stabilizer_mixture"] / total
    hyper = counts["hyper_octahedral_nonstab"] / total
    ok = (total == 100_000 and stab < 0.10 and stab + hyper > 0.50
          and smoke_wall < 180.0 and full_wall < 1800.0)
    _verdict(6, ok, f"stabilizer {stab:.3f}, +hyper-octahedral {stab + hyper:.3f}, "
                    f"smoke {smoke_wall:.0f}s, full {full_wall:.0f}s")


# transposing the PTM swaps the forward and adjoint norm conditions
_MIRROR = {"M": "M", "C": "C", "S": "H", "H": "S",
           "CS": "CH", "CH": "CS", "SH": "SH", "CSH": "CSH"}


@pytest.mark.slow
def test_acceptance_7_channel_census():
    """One stream of 1e4 sampled Choi states, classified under all four
    projection modes: together the modes realize all eight categories, and
    within the unprojected mode transposition swaps S- and H-counts exactly.

    The unprojected mode alone cannot show the H-side cells: the rescale that
    fixes the postselection weight pins the largest eigenvalue of
    adjoint(channel)(I) at 1, so its row-L1 norm exceeds 1 almost surely."""
    n_samples, seed = 10_000, 42
    union = set()
    invalid_total = 0
    results = {}
    for mode in ("general", "unital", "trace_preserving", "both"):
        res = classification_census(n_samples, mode, seed=seed, workers=1)
        results[mode] = res
        invalid_total += res.invalid
        union |= {cat for cat, count in res.counts.items() if count}

    # adjoint mirror over the same per-block streams the census consumed
    mirror_counts = {cat: 0 for cat in _MIRROR}
    for start in range(0, n_samples, CENSUS_BLOCK):
        rng = block_rng(seed, start // CENSUS_BLOCK)
        rhos = [sample_hilbert_schmidt(2, rng)
                for _ in range(min(CENSUS_BLOCK, n_samples - start))]
        for rec in classify_ptms([adjoint(ptm_from_choi(rho.matrix)) for rho in rhos]):
            mirror_counts[rec.category] += 1
    general = results["general"].counts
    mirror_ok = all(mirror_counts[_MIRROR[cat]] == general[cat] for cat in _MIRROR)

    ok = union == set(_MIRROR) and mirror_ok and invalid_total == 0
    _verdict(7, ok, f"categories over four modes {len(union)}/8, "
                    f"general S={general['S']} vs transposed H="
                    f"{mirror_counts['H']}, invalid {invalid_total}")


@pytest.mark.slow
def test_acceptance_8_qaoa_cross_validation():
    """Heisenberg and nested-expectation estimators agree within their bounds
    on desk-scale instances, match the dense oracle where one exists, and the
    a-priori bound is visibly loose at larger m."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(29)
    inst16 = generate_instance(16, 20, rng)
    agree = []
    for gamma in (0.0, math.pi / 16, math.pi / 8):
        rec = run_experiment(inst16, QaoaParams(gamma=gamma, beta=math.pi / 4),
                             1_000_000, seed=3)
        agree.append(rec["abs_err"] <= rec["eps_heis"] + rec["eps_nest"])

    inst8 = generate_instance(8, 10, rng)
    params = QaoaParams(gamma=math.pi / 8, beta=math.pi / 4)
    rec8 = run_experiment(inst8, params, 1_000_000, seed=4)
    exact = exact_expectation(inst8, params)
    oracle_ok = (abs(rec8["C_heis"] - exact) <= rec8["eps_heis_engine"]
                 and abs(rec8["C_vdn"] - exact) <= rec8["eps_nest"])

    inst32 = generate_instance(32, 40, np.random.default_rng(11))
    rec40 = run_experiment(inst32, QaoaParams(gamma=math.pi / 8, beta=math.pi / 4),
                           100_000, seed=5)
    loose_ok = (rec40["eps_heis"] >= 1.0
                and rec40["abs_err"] <= 0.1 * rec40["eps_heis"])

    wall = time.perf_counter() - t0
    ok = all(agree) and oracle_ok and loose_ok
    _verdict(8, ok, f"bound agreement {sum(agree)}/3, oracle |err| "
                    f"{abs(rec8['C_heis'] - exact):.4f}<= {rec8['eps_heis_engine']:.4f}, "
                    f"looseness {rec40['abs_err']:.4f} vs eps {rec40['eps_heis']:.2f}, "
                    f"wall {wall:.0f}s")


def test_acceptance_9_choi_postselection():
    phi00 = np.zeros((4, 4), dtype=complex)
    phi00[0, 0] = 1.0
    p_half = postselection_probability(phi00, 1) == 0.5

    # the channel with Choi state |00><00| is K = |0><0| up to the weight 1/2
    k = np.array([[1, 0], [0, 0]], dtype=complex)
    out = apply_kraus([k], plus_state().matrix)
    want = np.zeros((2, 2), dtype=complex)
    want[0, 0] = 0.5
    state_dev = float(np.abs(out - want).max())
    ptm_dev = float(np.abs(kraus_to_ptm([k], 1) - ptm_from_choi(phi00).matrix).max())

    rng = np.random.default_rng(17)
    round_trip_dev = 0.0
    weight_dev = 0.0
    for _ in range(100):
        g = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        isometry, _ = np.linalg.qr(g)
        kraus = [isometry[2 * i:2 * i + 2, :] for i in range(4)]
        ptm = PTM(kraus_to_ptm(kraus, 1))
        phi = choi_matrix(ptm)
        normalized = phi / np.trace(phi).real
        weight_dev = max(weight_dev, abs(postselection_probability(normalized, 1) - 1.0))
        back = ptm_from_choi(normalized)
        round_trip_dev = max(round_trip_dev,
                             float(np.abs(back.matrix - ptm.matrix).max()))

    ok = (p_half and state_dev <= 1e-12 and ptm_dev <= 1e-12
          and round_trip_dev <= 1e-8 and weight_dev <= 1e-9)
    _verdict(9, ok, f"p=1/2 exact {p_half}, postselection example {state_dev:.1e}, "
                    f"round trip {round_trip_dev:.1e} over 100 TP channels")
