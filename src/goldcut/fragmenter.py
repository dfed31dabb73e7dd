"""Enumerate and execute fragment variants.

Upstream fragments get one measurement setting per cut from {X, Y, Z};
downstream fragments get one preparation per cut from the six Pauli
eigenstates. Neglecting a basis P at a cut removes the upstream P setting
(only when P is not Z: the Z setting always runs because the identity term
is assembled from it) and removes the two P eigenstate preparations
downstream (|0> and |1> are always kept for the same reason).

The variant circuits describe what a device would run, one circuit per
variant. Variants of one fragment differ only in single-qubit gates on the
cut wires, so run_fragment simulates each distinct fragment body once:
upstream, it applies each variant's readout rotations to a copy of the
body's final state; downstream, it simulates the body on the 2^K
computational inputs of the cut wires and forms each preparation as the
matching linear combination of those 2^K output states. Each variant's
result is one probability vector over its local qubits: the exact Born
probabilities, or the frequencies of a multinomial draw of so many shots.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Fragment, PauliOp, h, s, x
from .errors import AllBasesNeglected, SupportMismatch
from .seeding import stream
from .simulator import (
    StateVector,
    apply_gates,
    basis_rotation,
    exact_distribution,
    sample,
    simulate,
)

MEASURED_BASES = (PauliOp.X, PauliOp.Y, PauliOp.Z)

PREP_LABELS = ("Zp", "Zm", "Xp", "Xm", "Yp", "Ym")

_PREP_GATES = {
    "Zp": (),
    "Zm": (x,),
    "Xp": (h,),
    "Xm": (x, h),
    "Yp": (h, s),
    "Ym": (x, h, s),
}

def prep_gates(label: str, qubit: int) -> list:
    """Gates that build the labeled eigenstate from |0> on the given wire."""
    return [factory(qubit) for factory in _PREP_GATES[label]]


def prep_state(label: str) -> np.ndarray:
    """The eigenstate vector a prep-gate sequence produces, bit for bit."""
    zero = StateVector(np.array([1.0, 0.0], dtype=complex))
    return apply_gates(zero, prep_gates(label, 0)).amplitudes


@dataclass(frozen=True)
class VariantKey:
    """Per-cut assignment identifying one executable variant.

    assignment maps cut_id to a basis label ("X", "Y", "Z") on the upstream
    side or a preparation label ("Zp" .. "Ym") downstream, as a tuple of
    (cut_id, label) pairs sorted by cut_id.
    """

    side: str
    assignment: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "assignment", tuple(sorted((int(c), str(l)) for c, l in self.assignment))
        )

    def label(self, cut_id: int) -> str:
        for cid, lab in self.assignment:
            if cid == cut_id:
                return lab
        raise KeyError(cut_id)


@dataclass
class VariantResult:
    """Execution record for one variant.

    probs is indexed by bitstring over the fragment's local qubits, bit
    position i being local qubit i: the exact Born probabilities when shots
    is 0, otherwise the frequencies of that many shots. cut_bits names which
    positions are measured cut wires, so they stay distinguishable from
    output bits.
    """

    key: VariantKey
    probs: np.ndarray
    shots: int
    n_bits: int
    cut_bits: tuple
    output_bits: tuple


def _neglected_by_cut(cut_ids, neglected):
    table = {cid: set() for cid in cut_ids}
    for cid, p in neglected:
        if cid not in table:
            raise ValueError("neglected pair references unknown cut %r" % cid)
        if p is PauliOp.I:
            raise ValueError("the identity basis cannot be neglected")
        table[cid].add(p)
    for cid, dropped in table.items():
        if dropped >= {PauliOp.X, PauliOp.Y, PauliOp.Z}:
            raise AllBasesNeglected("every basis neglected at cut %d" % cid)
    return table


def _obs_rotations(fragment: Fragment, obs) -> list:
    if obs is None or obs.kind != "pauli":
        return []
    extra = []
    outputs = set(fragment.output_qubits)
    for q, p in zip(obs.qubits, obs.paulis):
        if q not in outputs:
            raise SupportMismatch("observable qubit %d is not a fragment output" % q)
        if p in (PauliOp.X, PauliOp.Y):
            extra.extend(basis_rotation(p, q))
    return extra


def upstream_variants(f1: Fragment, neglected=frozenset(), obs=None):
    """All (VariantKey, Circuit) measurement settings for an upstream fragment.

    Each circuit is the fragment followed by readout rotations: basis
    rotations on the cut wires and, when obs is a Pauli string, rotations
    that map its X/Y factors on output wires to Z readouts. Every local
    qubit is then measured in the computational basis.
    """
    if not f1.upstream_cut_qubits:
        raise ValueError("fragment has no upstream cut qubits")
    cut_ids = [cid for cid, _ in f1.upstream_cut_qubits]
    dropped = _neglected_by_cut(cut_ids, neglected)
    allowed = [
        [p for p in MEASURED_BASES if p is PauliOp.Z or p not in dropped[cid]]
        for cid in cut_ids
    ]
    body = tuple(f1.circuit.gates) + tuple(_obs_rotations(f1, obs))
    table = _cut_gate_table(f1)
    out = []
    for combo in itertools.product(*allowed):
        key = VariantKey("upstream", tuple((cid, p.value) for cid, p in zip(cut_ids, combo)))
        gates = body + _cut_gates(table, key)
        out.append((key, Circuit(f1.circuit.n_qubits, gates, ())))
    return out


def downstream_variants(f2: Fragment, neglected=frozenset(), obs=None):
    """All (VariantKey, Circuit) eigenstate preparations for a downstream fragment.

    Each circuit prepends preparation gates on the cut wires, then runs the
    fragment, then any Pauli readout rotations for obs. Neglecting a non-Z
    basis drops its two preparations (6 per cut becomes 4).
    """
    if not f2.downstream_cut_qubits:
        raise ValueError("fragment has no downstream cut qubits")
    cut_ids = [cid for cid, _ in f2.downstream_cut_qubits]
    dropped = _neglected_by_cut(cut_ids, neglected)
    allowed = [
        [lab for lab in PREP_LABELS
         if lab.startswith("Z") or PauliOp(lab[0]) not in dropped[cid]]
        for cid in cut_ids
    ]
    body = tuple(f2.circuit.gates) + tuple(_obs_rotations(f2, obs))
    table = _cut_gate_table(f2)
    out = []
    for combo in itertools.product(*allowed):
        key = VariantKey("downstream", tuple(zip(cut_ids, combo)))
        gates = _cut_gates(table, key) + body
        out.append((key, Circuit(f2.circuit.n_qubits, gates, ())))
    return out


def _cut_gate_table(fragment: Fragment) -> dict:
    """Gates per (cut_id, label) that set a variant apart from its fragment
    body: readout rotations after the body upstream, preparations before it
    downstream."""
    if fragment.side == "upstream":
        return {(cid, p.value): tuple(basis_rotation(p, q))
                for cid, q in fragment.upstream_cut_qubits for p in MEASURED_BASES}
    return {(cid, lab): tuple(prep_gates(lab, q))
            for cid, q in fragment.downstream_cut_qubits for lab in PREP_LABELS}


def _cut_gates(table: dict, key: VariantKey) -> tuple:
    return tuple(g for pair in key.assignment for g in table[pair])


def _body(fragment: Fragment, table: dict, key: VariantKey, circuit: Circuit) -> tuple:
    """The variant's gates without its cut gates; ValueError when the
    circuit does not carry the cut gates its key names."""
    cuts = (fragment.upstream_cut_qubits if fragment.side == "upstream"
            else fragment.downstream_cut_qubits)
    cut_ids = [cid for cid, _ in cuts]
    if [cid for cid, _ in key.assignment] != cut_ids:
        raise ValueError("variant %r does not match the fragment's cuts %s" % (key, cut_ids))
    own = _cut_gates(table, key)
    gates = circuit.gates
    if fragment.side == "upstream":
        body, tail = gates[:len(gates) - len(own)], gates[len(gates) - len(own):]
    else:
        tail, body = gates[:len(own)], gates[len(own):]
    if tail != own:
        raise ValueError("variant %r does not carry the cut gates of its key" % (key,))
    return body


def _upstream_states(fragment: Fragment, body: Circuit, keys):
    """Final state per key: the body runs once, each key adds its rotations."""
    table = _cut_gate_table(fragment)
    state = simulate(body)
    for key in keys:
        yield apply_gates(state, _cut_gates(table, key))


_ONE = np.array([0.0, 1.0], dtype=complex)
# Downstream states formed per matrix product; 64 states of 10 wires take
# 1 MiB, where all 6^4 of them would take 21 MiB.
_CHUNK = 64


def _downstream_states(fragment: Fragment, body: Circuit, keys):
    """Final state per key from the body's 2^K computational-input columns.

    The body is linear in its input, so a product of per-cut preparations
    maps to the same product of coefficients applied to the columns. Rows
    are formed for all keys at once; states are formed a chunk at a time so
    that at most _CHUNK of them are held.
    """
    cuts = fragment.downstream_cut_qubits
    columns = []
    for bits in itertools.product((0, 1), repeat=len(cuts)):
        initial = [None] * body.n_qubits
        for (_, q), b in zip(cuts, bits):
            initial[q] = _ONE if b else None
        columns.append(simulate(body, initial).amplitudes)
    columns = np.array(columns)
    amps = np.array([prep_state(lab) for lab in PREP_LABELS])
    which = np.array([[PREP_LABELS.index(lab) for _, lab in key.assignment] for key in keys])
    rows = np.ones((len(keys), 1), dtype=complex)
    for j in range(len(cuts)):
        rows = (rows[:, :, None] * amps[which[:, j]][:, None, :]).reshape(len(keys), -1)
    for start in range(0, len(keys), _CHUNK):
        for amplitudes in rows[start:start + _CHUNK] @ columns:
            yield StateVector(amplitudes)


def run_fragment(fragment: Fragment, variants, shots=None, seed=0, seed_path=(),
                 ledger=None):
    """Execute every variant; exact or sampled probability vectors.

    Variants are grouped by fragment body, and each distinct body is
    simulated once (2^K times downstream, once per computational input on
    the cut wires); see the module docstring. Any list of variants of this
    fragment works, in any order. shots None stores exact probability
    vectors (result shots 0); otherwise each variant stores its draw divided
    by shots, sampled with its own RNG stream derived from (seed,
    *seed_path, index), index being its position in variants, so results
    are deterministic and independent of execution order. A ledger object
    with a record(side, variants, shots_each) method picks up the execution
    counts when provided.
    """
    side = fragment.side
    n = fragment.circuit.n_qubits
    everything = tuple(range(n))
    # Bodies are compared with ==, which short-cuts on the shared Gate
    # objects of one enumeration, instead of hashing every gate per variant.
    table = _cut_gate_table(fragment)
    groups = []
    for i, (key, circ) in enumerate(variants):
        body = _body(fragment, table, key, circ)
        for known, indices in groups:
            if known == body:
                indices.append(i)
                break
        else:
            groups.append((body, [i]))
    states = _upstream_states if side == "upstream" else _downstream_states
    results = [None] * len(variants)
    for body, indices in groups:
        keys = [variants[i][0] for i in indices]
        for i, key, sv in zip(indices, keys, states(fragment, Circuit(n, body, ()), keys)):
            if shots is None:
                probs, used = exact_distribution(sv, everything), 0
            else:
                draws = sample(sv, everything, shots, stream(seed, *seed_path, i))
                probs, used = draws / shots, shots
            results[i] = VariantResult(key, probs, used, n, fragment.upstream_cut_qubits,
                                       fragment.output_qubits)
    if ledger is not None:
        ledger.record(side, len(results), 0 if shots is None else shots)
    return results
