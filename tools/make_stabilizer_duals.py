"""Build the committed table of two-qubit robustness-LP dual certificates.

    PYTHONPATH=src python tools/make_stabilizer_duals.py [--out PATH]

The robustness LP min sum(x) s.t. [T, -T] x = t, x >= 0 has the dual
max <y, t> s.t. |<y, T_s>| <= 1 for each of the 60 stabilizer states s, so
every dual-feasible y bounds R(t) >= <y, t> (Howard & Campbell, PRL 118,
090501, 2017). The table is built in four deterministic steps, with no
network access:

1. Solve the LP of TRAIN seeded inputs of every family in FAMILIES and take
   HiGHS's equality marginals as y.
2. Keep y as the integer row DUAL_DENOM * y, and only if that row is exact and
   feasible in integer arithmetic (exact_dual).
3. Expand the kept rows to the union of their orbits under the two-qubit
   Clifford group, which maps the stabilizer set onto itself (Heinrich &
   Gross, Quantum 3, 132, 2019): the 11520 signed permutations by which the
   closure of H, S and CNOT acts on trace tables. The rows are walked under
   the transposed generators, so the group itself is never built.
4. Keep only the orbit rows that give the largest <y, t> for at least one
   input of PRUNE seeded inputs per family (on different seeds), where the
   identity row and the stabilizer-norm row sign(t)/4, which magic always
   adds, do not already do as well.

HiGHS duals, and so the table, may differ between scipy versions; any
output of this script is a valid table, because magic re-checks every row's
feasibility when it loads it.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from pauliprop.channels import (
    NotCompletelyPositiveError,
    adjoint,
    choi_trace_table,
    compose,
    make_depolarizing,
    make_rotation,
    ptm_from_choi,
)
from pauliprop.fanout import block_rng
from pauliprop.magic import (
    DUAL_DENOM,
    MODES,
    _clifford_generators,
    _min_weight,
    _orbit,
    _split_weights,
    enumerate_stabilizer_states,
    project_ptm,
    sample_hilbert_schmidt,
)

OUT = Path(__file__).resolve().parents[1] / "src/pauliprop/data/stabilizer_duals_2q.txt"
FAMILIES = ("state", *MODES, "adjoint", "rotation")
TRAIN, PRUNE = 200, 4000  # inputs per family
TRAIN_SEED, PRUNE_SEED = 1, 2
SCORE_CHUNK = 64  # pruning inputs scored at a time, which bounds memory


def family_tables(family: str, count: int, rng) -> np.ndarray:
    """Trace tables of `count` seeded inputs of one family. States are
    Hilbert-Schmidt random; the census modes and `adjoint` are the Choi
    states of projected or transposed Hilbert-Schmidt channels (draws with no
    Choi state are skipped); `rotation` draws depolarized Z rotations."""
    out = []
    while len(out) < count:
        if family == "rotation":
            ptm = compose(make_depolarizing(rng.uniform(0.4, 1.0)),
                          make_rotation(rng.uniform(0.0, np.pi / 2)))
        else:
            rho = sample_hilbert_schmidt(2, rng)
            if family == "state":
                out.append(rho.trace_table)
                continue
            ptm = ptm_from_choi(rho.matrix)
            ptm = adjoint(ptm) if family == "adjoint" else project_ptm(ptm, family)
        try:
            out.append(choi_trace_table(ptm))
        except NotCompletelyPositiveError:
            continue
    return np.array(out)


def exact_dual(y: np.ndarray) -> np.ndarray | None:
    """DUAL_DENOM * y as integers, or None unless that is exact to 1e-6 and the
    row is feasible in integer arithmetic: |<DUAL_DENOM y, T_s>| <= DUAL_DENOM."""
    row = np.rint(DUAL_DENOM * y)
    if np.abs(DUAL_DENOM * y - row).max() > 1e-6:
        return None
    row = row.astype(np.int64)
    if np.abs(row @ enumerate_stabilizer_states(2)).max() > DUAL_DENOM:
        return None
    return row


def orbits(rows: np.ndarray) -> np.ndarray:
    """The sorted distinct images g^T y of the rows y over the group, from one
    walk under the transposed generators, which generate the transposed group.
    <g^T y, t> = <y, g t>, so g^T y bounds t exactly as y bounds g t."""
    return np.unique(_orbit(rows, [g.T for g in _clifford_generators(2)]), axis=0)


def prune(rows: np.ndarray, tables: np.ndarray) -> np.ndarray:
    """Indices of the rows that win for some table, where the identity row
    and the stabilizer-norm row do not already reach the same value."""
    keep = set()
    floor = np.maximum(tables[:, 0], np.abs(tables).sum(axis=1) / 4)
    ys = rows / DUAL_DENOM
    for start in range(0, len(tables), SCORE_CHUNK):
        scores = tables[start:start + SCORE_CHUNK] @ ys.T
        best = scores.argmax(axis=1)
        wins = scores[np.arange(len(best)), best] > floor[start:start + SCORE_CHUNK] + 1e-12
        keep.update(best[wins].tolist())
    return np.array(sorted(keep), dtype=np.int64)


def build() -> np.ndarray:
    block = _split_weights(2)
    duals = []
    for f, family in enumerate(FAMILIES):
        for t in family_tables(family, TRAIN, block_rng(TRAIN_SEED, f)):
            row = exact_dual(_min_weight(block, t).eqlin.marginals)
            if row is not None:
                duals.append(row)
    rows = orbits(np.unique(duals, axis=0))
    prune_set = np.concatenate([family_tables(family, PRUNE, block_rng(PRUNE_SEED, f))
                                for f, family in enumerate(FAMILIES)])
    return rows[prune(rows, prune_set)]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=OUT)
    args = parser.parse_args()
    rows = build()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    np.savetxt(args.out, rows, fmt="%d",
               header=f"{len(rows)} two-qubit robustness-LP dual rows, stored as "
                      f"{DUAL_DENOM} * y; generated by tools/make_stabilizer_duals.py")
    print(f"{len(rows)} rows -> {args.out}")


if __name__ == "__main__":
    main()
