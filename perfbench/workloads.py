"""Seeded workloads for the reconstruct benchmark.

A workload is a list of circuits generated from the workload seed plus a
fixed cycle of reconstruct calls ("ops") over them. One pass over the cycle
is a round; every round repeats the same ops, so per-round counts repeat
exactly for a given seed. goldcut only ever receives the generated circuits.
Why each workload is in the suite is noted at its definition; BENCHMARK.json
carries the one-line version.

Importing this module imports goldcut; the benchmark times that import as
part of set-up.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import goldcut
from goldcut import Circuit, CutPoint, bipartition, cnot, rx, ry

SHOTS = 10_000
GOLDEN_WIDTHS = (3, 5, 7, 9)
GOLDEN_DEPTH = 3
MULTICUT_UPSTREAM = 6
MULTICUT_FRESH = 6
MULTICUT_LAYERS = 3

@dataclass(frozen=True)
class Op:
    """One reconstruct call: which circuit and with which settings."""

    circuit: int
    prune: str
    shots: int | None = None
    observable: str = "distribution"   # or "zstring": Z on every qubit

    @property
    def label(self) -> str:
        mode = "exact" if self.shots is None else "shots%d" % self.shots
        return "c%d/%s/%s/%s" % (self.circuit, mode, self.prune, self.observable)


@dataclass
class Workload:
    circuits: list
    ops: tuple
    warmup: list      # (circuit, Op) pairs run once during set-up


def multicut_circuit(k: int, seed: int) -> Circuit:
    """12-qubit circuit with K wire cuts, bipartite by construction.

    Upstream: wires 0..5, MULTICUT_LAYERS layers of ry plus a CNOT chain.
    The last K upstream wires are cut right after their last upstream gate.
    Downstream: the K cut wires plus 6 fresh wires, with layers of rx plus a
    CNOT chain running through cut wires first, then fresh wires. Angles
    come from numpy's generator keyed by (seed, k), so the family does not
    depend on goldcut's own seeding.
    """
    if not 1 <= k <= MULTICUT_UPSTREAM:
        raise ValueError("K must be in 1..%d" % MULTICUT_UPSTREAM)
    rng = np.random.default_rng([seed, k])
    gates = []
    for _ in range(MULTICUT_LAYERS):
        gates += [ry(rng.uniform(0.0, 2 * np.pi), q) for q in range(MULTICUT_UPSTREAM)]
        gates += [cnot(q, q + 1) for q in range(MULTICUT_UPSTREAM - 1)]
    cut_wires = list(range(MULTICUT_UPSTREAM - k, MULTICUT_UPSTREAM))
    cuts = tuple(
        CutPoint(w, max(i for i, g in enumerate(gates) if w in g.qubits), cid)
        for cid, w in enumerate(cut_wires, start=1)
    )
    down = cut_wires + list(range(MULTICUT_UPSTREAM, MULTICUT_UPSTREAM + MULTICUT_FRESH))
    for _ in range(MULTICUT_LAYERS):
        gates += [rx(rng.uniform(0.0, 2 * np.pi), q) for q in down]
        gates += [cnot(a, b) for a, b in zip(down, down[1:])]
    circuit = Circuit(MULTICUT_UPSTREAM + MULTICUT_FRESH, tuple(gates), cuts)
    f1, f2 = bipartition(circuit)
    if (f1.circuit.n_qubits, f2.circuit.n_qubits) != (MULTICUT_UPSTREAM, k + MULTICUT_FRESH):
        raise RuntimeError("multi-cut K=%d split into %d + %d wires, expected %d + %d"
                           % (k, f1.circuit.n_qubits, f2.circuit.n_qubits,
                              MULTICUT_UPSTREAM, k + MULTICUT_FRESH))
    return circuit


def golden_sweep(seed: int, smoke: bool = False) -> Workload:
    # The paper's and the CLI's own use: single-cut golden ansatz circuits,
    # where exact detection proves Y golden and pruning drops 9 -> 6
    # variants. Ops are short (milliseconds), so per-call overhead,
    # golden detection and the redundant oracle pass are a visible share;
    # it is also the only workload that runs the statistical detector on
    # something golden and the expectation (Pauli string) path.
    widths = GOLDEN_WIDTHS[:2] if smoke else GOLDEN_WIDTHS
    circuits = [goldcut.golden_ansatz(n, GOLDEN_DEPTH, seed) for n in widths]
    ops = []
    for i in range(len(circuits)):
        ops += [Op(i, "off"), Op(i, "exact"), Op(i, "statistical", SHOTS),
                Op(i, "exact", observable="zstring")]
    warmup = [(circuits[0], op) for op in ops if op.circuit == 0]
    return Workload(circuits, tuple(ops), warmup)


def multicut_exact(seed: int, smoke: bool = False) -> Workload:
    # The ROADMAP reference size K=4, exact, full distribution: each op runs
    # 81 + 1296 variants plus an 81-variant oracle pass, all full
    # re-simulations of 6- and 10-wire fragments, so the simulator layer is
    # almost all of the time. Work that runs each fragment body once shows
    # here; sampling is never used, so a sampling change must not move it.
    k = 2 if smoke else 4
    circuits = [multicut_circuit(k, seed)]
    ops = (Op(0, "off"), Op(0, "exact"))
    warmup = [(multicut_circuit(1, seed), op) for op in ops]
    return Workload(circuits, ops, warmup)


def multicut_shots(seed: int, smoke: bool = False) -> Workload:
    # The same family at K=3 with 1e4 shots per variant: the same execution
    # layer used differently (multinomial sampling, string-keyed Counts,
    # shot-mode tensor builds from counts). The statistical detector runs
    # and decides but flags nothing, so a change that helps exact mode and
    # costs shot mode shows up here. It is not in BENCHMARK.json: the time
    # budget fits three workloads only at 40 s per run, too short for the
    # K=4 workload to be steady; run it by name to compare shot mode.
    k = 2 if smoke else 3
    circuits = [multicut_circuit(k, seed)]
    ops = (Op(0, "off", SHOTS), Op(0, "statistical", SHOTS))
    warmup = [(multicut_circuit(1, seed), op) for op in ops]
    return Workload(circuits, ops, warmup)


BUILDERS = {
    "golden_sweep": golden_sweep,
    "multicut_exact": multicut_exact,
    "multicut_shots": multicut_shots,
}
