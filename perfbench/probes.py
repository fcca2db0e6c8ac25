"""Cost of one engine step of each kind, in ns per sample per step.

Each probe circuit holds a single step kind. It is estimated at two depths
and the difference of the two times is divided by the extra steps walked, so
compile, start sampling and finish costs cancel.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

from pauliprop import channels, operators, propagation
from pauliprop.channels import ChannelApplication

PROBE_N = 8
PROBE_SAMPLES = 100_000
PROBE_DEPTHS = (10, 40)
PROBE_REPEATS = 3


def _zzz_rotation(gamma):
    parity = np.array([(-1.0) ** bin(b).count("1") for b in range(8)])
    return np.diag(np.exp(-0.5j * gamma * parity))


def _kinds():
    """step kind -> (PTM, qubits of step i)."""
    noisy_t = channels.compose(channels.make_depolarizing(0.6),
                               channels.make_rotation(math.pi / 4))
    n = PROBE_N
    return {
        "det_1q": (channels.make_clifford("h"), lambda i: (i % n,)),
        "det_2q": (channels.make_clifford("cnot"), lambda i: (i % n, (i + 1) % n)),
        "stoch_1q": (noisy_t, lambda i: (i % n,)),
        "stoch_3q": (channels.make_unitary_ptm(_zzz_rotation(math.pi / 8)),
                     lambda i: (i % n, (i + 1) % n, (i + 2) % n)),
    }


def _circuit(ptm, qubits_of, depth):
    n = PROBE_N
    x = operators.DenseOperator(operators.pauli_matrix(1, 1))
    return propagation.Circuit(
        n,
        operators.FactoredState.of_qubit_states([operators.plus_state()] * n),
        [ChannelApplication(ptm, qubits_of(i)) for i in range(depth)],
        operators.FactoredState.of_qubit_states([x] * n),
    )


def step_costs() -> dict:
    out = {}
    lo, hi = PROBE_DEPTHS
    for kind, (ptm, qubits_of) in _kinds().items():
        times = {}
        for depth in PROBE_DEPTHS:
            circuit = _circuit(ptm, qubits_of, depth)
            samples = []
            for _ in range(PROBE_REPEATS):
                t0 = perf_counter()
                propagation.estimate(circuit, "heisenberg", PROBE_SAMPLES, seed=1, workers=1)
                samples.append(perf_counter() - t0)
            times[depth] = statistics.median(samples)
        out[kind] = (times[hi] - times[lo]) / ((hi - lo) * PROBE_SAMPLES) * 1e9
    return out
