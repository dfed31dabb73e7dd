"""Shared test helpers.

The reference simulator here deliberately avoids the package's
matrix-product kernel: it embeds every gate into a full 2^n x 2^n matrix
by explicit index arithmetic, so the two implementations can cross-check
each other. The random cut-circuit builder makes parents that are
bipartite by construction (an upstream block, K shared wires, a downstream
block), with entangling chains so each side is one connected component.
Hypothesis runs derandomized, so property tests draw the same examples on
every run.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

import goldcut.fragmenter as fragmenter
from goldcut.circuits import Circuit, CutPoint, PauliOp, cnot, gate_matrix, random_circuit
from goldcut.fragmenter import _PREP_GATES
from goldcut.simulator import _run, basis_rotation, simulate

settings.register_profile("goldcut", derandomize=True, deadline=None, max_examples=25)
settings.load_profile("goldcut")


def load_perfbench(name):
    """A module of the benchmark, loaded read-only from its file once."""
    key = "perfbench_" + name
    if key not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / ("%s.py" % name)
        spec = importlib.util.spec_from_file_location(key, path)
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def count_execution(monkeypatch):
    """Record the fragmenter's simulate calls as "simulate" and its _run
    calls as (live wires, shape of the start)."""
    calls = []

    def counting_simulate(circuit):
        calls.append("simulate")
        return simulate(circuit)

    def counting_run(circuit, start, live):
        calls.append((live, start.shape))
        return _run(circuit, start, live)

    monkeypatch.setattr(fragmenter, "simulate", counting_simulate)
    monkeypatch.setattr(fragmenter, "_run", counting_run)
    return calls


def embed_unitary(u, qubits, n):
    """Expand a gate matrix to the full register by basis-index bookkeeping."""
    dim = 2 ** n
    k = len(qubits)
    shifts = [n - 1 - q for q in qubits]
    full = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        a_in = 0
        for sh in shifts:
            a_in = (a_in << 1) | ((col >> sh) & 1)
        base = col
        for sh in shifts:
            base &= ~(1 << sh)
        for a_out in range(2 ** k):
            row = base
            for j, sh in enumerate(shifts):
                if (a_out >> (k - 1 - j)) & 1:
                    row |= 1 << sh
            full[row, col] += u[a_out, a_in]
    return full


def ref_unitary(circuit):
    n = circuit.n_qubits
    u = np.eye(2 ** n, dtype=complex)
    for g in circuit.gates:
        u = embed_unitary(gate_matrix(g), g.qubits, n) @ u
    return u


def ref_state(circuit):
    """The first column of ref_unitary: the circuit applied to |0...0>."""
    return ref_unitary(circuit)[:, 0]


def ref_distribution(circuit):
    return np.abs(ref_state(circuit)) ** 2


def make_cut_circuit(n_up, n_down, k, depth, seed):
    """Random parent circuit with K cut wires shared between two blocks.

    The upstream block acts on qubits 0..n_up-1, the downstream block on
    qubits n_up-k..n-1 (so the last k upstream wires continue downstream),
    and every cut sits between the blocks. Bipartition yields fragments of
    widths n_up and n_down.
    """
    assert 1 <= k <= min(n_up, n_down) and depth >= 1
    n = n_up + n_down - k
    offset = n_up - k
    up = list(random_circuit(n_up, depth, seed).gates)
    for i in range(n_up - 1):
        up.append(cnot(i, i + 1))
    down = []
    for g in random_circuit(n_down, depth, seed + 1000).gates:
        down.append(g.__class__(g.kind, tuple(q + offset for q in g.qubits),
                                g.params, g.matrix))
    for i in range(offset, n - 1):
        down.append(cnot(i, i + 1))
    cuts = tuple(
        CutPoint(offset + j, len(up) - 1, j + 1) for j in range(k)
    )
    return Circuit(n, tuple(up) + tuple(down), cuts)


def stitch(f1, f2, n_parent):
    """Reassemble a parent circuit from two fragments (upstream gates first)."""
    gates = []
    for frag in (f1, f2):
        for g in frag.circuit.gates:
            gates.append(g.__class__(g.kind, tuple(frag.parent_qubits[q] for q in g.qubits),
                                     g.params, g.matrix))
    return Circuit(n_parent, tuple(gates), ())


def variant_circuit(fragment, key):
    """The device circuit of one variant, built gate by gate from its key.

    Upstream: the fragment, the readout rotations, then the basis rotations
    of each cut's setting. Downstream: the preparation gates of each cut's
    label, the fragment, then the readout rotations.
    """
    readout = tuple(g for q, p in key.readout for g in basis_rotation(PauliOp(p), q))
    if key.side == "upstream":
        wires = dict(fragment.upstream_cut_qubits)
        cut = tuple(g for cid, lab in key.assignment
                    for g in basis_rotation(PauliOp(lab), wires[cid]))
        gates = tuple(fragment.circuit.gates) + readout + cut
    else:
        wires = dict(fragment.downstream_cut_qubits)
        cut = tuple(make(wires[cid]) for cid, lab in key.assignment
                    for make in _PREP_GATES[lab])
        gates = cut + tuple(fragment.circuit.gates) + readout
    return Circuit(fragment.circuit.n_qubits, gates, ())
