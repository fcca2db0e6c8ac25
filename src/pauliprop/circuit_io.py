"""JSON formats for circuits and equation instances.

Circuit files look like:

  {"n": 2,
   "input":      [{"state": "plus", "qubits": [0]}, {"state": "zero", "qubits": [1]}],
   "channels":   [{"gate": "cnot", "qubits": [0, 1]},
                  {"rotation": 0.785398, "qubits": [1]},
                  {"depolarize": 0.9, "qubits": [0]}],
   "observable": [{"pauli": "ZZ", "qubits": [0, 1]}]}

Factor specs carry exactly one of "state" (library name), "pauli" (string over
IXYZ, one character per listed qubit), or "matrix" (2^k x 2^k, entries either
real numbers or [re, im] pairs). Channel specs carry exactly one of "gate",
"rotation", "depolarize", "measure_z", "reset", "adaptive", "ptm". Errors name
the offending path, e.g. "channels[3].rotation". Numbers must be finite, and
JSON's true and false are not numbers.

JSON that fails to decode is a parse error (SpecParseError); decoded content
that violates the format is a validation error (SpecValidationError).
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import channels as ch
from .fanout import is_integer
from .operators import (
    DenseOperator,
    LIBRARY_STATES,
    MAX_FACTOR_QUBITS,
    maximally_mixed,
    pauli_matrix,
)
from .propagation import Circuit
from .operators import FactoredState
from .qaoa import E3Lin2Instance


class SpecParseError(ValueError):
    pass


class SpecValidationError(ValueError):
    pass


_PAULI_CHARS = {"I": 0, "X": 1, "Y": 2, "Z": 3}
CHANNEL_KEYS = ("gate", "rotation", "depolarize", "measure_z", "reset", "adaptive", "ptm")
FACTOR_KEYS = ("state", "pauli", "matrix")


def _require(cond: bool, path: str, message: str):
    if not cond:
        raise SpecValidationError(f"{path}: {message}")


def _is_number(v) -> bool:
    # json.load reads NaN, Infinity and -Infinity as floats
    return (is_integer(v) or isinstance(v, float)) and math.isfinite(v)


def _qubit_list(obj: dict, path: str, n: int | None) -> tuple:
    _require("qubits" in obj, path, "missing 'qubits'")
    qs = obj["qubits"]
    _require(isinstance(qs, list) and qs and all(is_integer(q) for q in qs),
             f"{path}.qubits", "must be a nonempty list of integers")
    _require(len(set(qs)) == len(qs), f"{path}.qubits", "qubits repeat")
    if n is not None:
        for q in qs:
            _require(0 <= q < n, f"{path}.qubits", f"qubit {q} out of range for n={n}")
    return tuple(qs)


def _complex_entry(v, path: str) -> complex:
    if _is_number(v):
        return complex(v)
    if isinstance(v, list) and len(v) == 2 and all(_is_number(t) for t in v):
        return complex(v[0], v[1])
    raise SpecValidationError(f"{path}: entries must be finite numbers or [re, im] pairs")


def _parse_matrix(rows, path: str) -> np.ndarray:
    _require(isinstance(rows, list) and rows, path, "must be a nonempty list of rows")
    dim = len(rows)
    out = np.zeros((dim, dim), dtype=complex)
    for i, row in enumerate(rows):
        _require(isinstance(row, list) and len(row) == dim,
                 f"{path}[{i}]", f"must be a list of length {dim}")
        for j, v in enumerate(row):
            out[i, j] = _complex_entry(v, f"{path}[{i}][{j}]")
    return out


def parse_factor(obj, path: str, n: int | None = None):
    """-> (qubits, DenseOperator)."""
    _require(isinstance(obj, dict), path, "must be an object")
    qubits = _qubit_list(obj, path, n)
    keys = [k for k in FACTOR_KEYS if k in obj]
    _require(len(keys) == 1, path, f"need exactly one of {FACTOR_KEYS}")
    kind = keys[0]
    k = len(qubits)
    _require(k <= MAX_FACTOR_QUBITS, f"{path}.qubits",
             f"a factor acts on at most {MAX_FACTOR_QUBITS} qubits")
    if kind == "state":
        name = obj["state"]
        _require(isinstance(name, str) and name in LIBRARY_STATES, f"{path}.state",
                 f"unknown state (choose from {sorted(LIBRARY_STATES)})")
        if name == "maximally_mixed":
            op = maximally_mixed(k)
        else:
            _require(k == 1, f"{path}.state", f"'{name}' is single-qubit")
            op = LIBRARY_STATES[name]()
    elif kind == "pauli":
        s = obj["pauli"]
        _require(isinstance(s, str) and len(s) == k, f"{path}.pauli",
                 f"must be a string of length {k}")
        idx = 0
        for pos, c in enumerate(s):
            _require(c in _PAULI_CHARS, f"{path}.pauli", f"bad character {c!r}")
            idx += _PAULI_CHARS[c] * 4**pos
        op = DenseOperator(pauli_matrix(idx, k))
    else:
        m = _parse_matrix(obj["matrix"], f"{path}.matrix")
        _require(m.shape[0] == 2**k, f"{path}.matrix",
                 f"size {m.shape[0]} does not match {k} qubit(s)")
        try:
            op = DenseOperator(m)
        except ValueError as e:
            raise SpecValidationError(f"{path}.matrix: {e}") from None
    return qubits, op


def _bare_channel(obj: dict, kind: str, path: str, k: int) -> ch.PTM:
    """The PTM named by a single channel key, checked against arity k."""
    val = obj[kind]
    if kind == "gate":
        _require(isinstance(val, str), f"{path}.gate", "must be a string")
        name = val.lower()
        if name == "t":
            _require(k == 1, f"{path}.gate", "'t' is single-qubit")
            return ch.make_rotation(math.pi / 4)
        _require(name in ch.CLIFFORD_NAMES, f"{path}.gate",
                 f"unknown gate (choose from {ch.CLIFFORD_NAMES + ('t',)})")
        ptm = ch.make_clifford(name)
        _require(ptm.k == k, f"{path}.gate", f"'{name}' acts on {ptm.k} qubit(s), not {k}")
        return ptm
    if kind == "rotation":
        _require(_is_number(val), f"{path}.rotation", "must be a finite number")
        _require(k == 1, f"{path}.rotation", "rotations are single-qubit")
        return ch.make_rotation(float(val))
    if kind == "depolarize":
        _require(_is_number(val) and 0.0 <= val <= 1.0,
                 f"{path}.depolarize", "fidelity must be a number in [0, 1]")
        _require(k == 1, f"{path}.depolarize", "depolarizing is single-qubit")
        return ch.make_depolarizing(float(val))
    if kind == "measure_z":
        _require(val == {}, f"{path}.measure_z", "takes an empty object")
        _require(k == 1, f"{path}.measure_z", "measurement is single-qubit")
        return ch.make_measure_z()
    if kind == "reset":
        _require(isinstance(val, dict), f"{path}.reset", "must be a state spec object")
        spec = dict(val)
        spec.setdefault("qubits", list(range(k)))
        _, rho = parse_factor(spec, f"{path}.reset")
        _require(rho.k == k, f"{path}.reset", f"state is on {rho.k} qubit(s), not {k}")
        try:
            return ch.make_reset(rho)
        except ValueError as e:
            raise SpecValidationError(f"{path}.reset: {e}") from None
    if kind == "adaptive":
        _require(isinstance(val, dict), f"{path}.adaptive", "must be a channel spec object")
        inner_keys = [x for x in CHANNEL_KEYS if x in val]
        _require(len(inner_keys) == 1, f"{path}.adaptive",
                 f"need exactly one of {CHANNEL_KEYS}")
        _require(k >= 2, f"{path}.adaptive", "needs a control plus the inner block")
        inner = _bare_channel(val, inner_keys[0], f"{path}.adaptive", k - 1)
        return ch.make_adaptive(inner)
    # explicit ptm
    rows = val
    _require(isinstance(rows, list), f"{path}.ptm", "must be a matrix (list of rows)")
    m = _parse_matrix(rows, f"{path}.ptm")
    _require(np.allclose(m.imag, 0.0), f"{path}.ptm", "entries must be real")
    _require(m.shape[0] == 4**k, f"{path}.ptm",
             f"size {m.shape[0]} does not match {k} qubit(s)")
    ptm = ch.PTM(m.real)
    try:
        ch.validate_cp(ptm, context=f"{path}.ptm")
    except ch.NotCompletelyPositiveError as e:
        raise SpecValidationError(str(e)) from None
    return ptm


def parse_channel(obj, path: str, n: int | None = None) -> ch.ChannelApplication:
    _require(isinstance(obj, dict), path, "must be an object")
    qubits = _qubit_list(obj, path, n)
    keys = [k for k in CHANNEL_KEYS if k in obj]
    _require(len(keys) == 1, path, f"need exactly one of {CHANNEL_KEYS}")
    ptm = _bare_channel(obj, keys[0], path, len(qubits))
    return ch.ChannelApplication(ptm, qubits)


def parse_circuit(obj) -> Circuit:
    _require(isinstance(obj, dict), "circuit", "top level must be an object")
    for key in ("n", "input", "channels", "observable"):
        _require(key in obj, "circuit", f"missing '{key}'")
    n = obj["n"]
    _require(is_integer(n) and n >= 1, "circuit.n", "must be a positive integer")
    _require(isinstance(obj["input"], list), "circuit.input", "must be a list")
    _require(isinstance(obj["channels"], list), "circuit.channels", "must be a list")
    _require(isinstance(obj["observable"], list), "circuit.observable", "must be a list")
    inp = [parse_factor(f, f"input[{i}]", n) for i, f in enumerate(obj["input"])]
    obs = [parse_factor(f, f"observable[{i}]", n) for i, f in enumerate(obj["observable"])]
    apps = [parse_channel(c, f"channels[{i}]", n) for i, c in enumerate(obj["channels"])]
    try:
        return Circuit(n, FactoredState(n, tuple(inp)), tuple(apps),
                       FactoredState(n, tuple(obs)))
    except ValueError as e:
        raise SpecValidationError(f"circuit: {e}") from None


def load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SpecParseError(f"{path}: {e}") from None


def load_circuit(path: str) -> Circuit:
    return parse_circuit(load_json(path))


def parse_instance(obj) -> E3Lin2Instance:
    _require(isinstance(obj, dict), "instance", "top level must be an object")
    for key in ("n", "equations"):
        _require(key in obj, "instance", f"missing '{key}'")
    n = obj["n"]
    _require(is_integer(n) and n >= 3, "instance.n", "must be an integer >= 3")
    eqs = obj["equations"]
    _require(isinstance(eqs, list) and eqs, "instance.equations", "must be a nonempty list")
    parsed = []
    for i, eq in enumerate(eqs):
        _require(isinstance(eq, list) and len(eq) == 4
                 and all(is_integer(v) for v in eq),
                 f"instance.equations[{i}]", "must be [a, b, c, d] integers")
        parsed.append(tuple(eq))
    m = obj.get("m", len(parsed))
    _require(is_integer(m) and m == len(parsed), "instance.m", "does not match the equation count")
    try:
        return E3Lin2Instance(n, len(parsed), tuple(parsed))
    except ValueError as e:
        raise SpecValidationError(f"instance: {e}") from None


def load_instance(path: str) -> E3Lin2Instance:
    return parse_instance(load_json(path))


def instance_to_json(inst: E3Lin2Instance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "equations": [list(eq) for eq in inst.equations],
    }
