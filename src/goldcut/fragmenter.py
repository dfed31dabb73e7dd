"""Enumerate and execute fragment variants.

Upstream fragments get one measurement setting per cut from {X, Y, Z};
downstream fragments get one preparation per cut from the six Pauli
eigenstates. Neglecting a basis P at a cut removes the upstream P setting
(only when P is not Z: the Z setting always runs because the identity term
is assembled from it) and removes the two P eigenstate preparations
downstream (|0> and |1> are always kept for the same reason).

A variant is its VariantKey: a label per cut plus the readout rotations
that a Pauli observable puts on the fragment's outputs. On a device it is
the fragment with the preparations of its labels prepended (downstream),
and the readout rotations, then the basis rotations of its settings
(upstream), appended. run_fragment builds no circuit per variant: it
groups the keys by readout and simulates each group's body (the fragment
plus its readout rotations) once. Upstream, it applies each key's basis
rotations to a copy of the body's final state; downstream, it runs the
body on the 2^K computational inputs of the cut wires in one batched pass
and forms each preparation as the matching linear combination of those
2^K output states. Each variant's result is one probability vector over
its local qubits: the exact Born probabilities, or the frequencies of a
multinomial draw of so many shots. Exact tensors need no variants:
cut_amplitudes gives the fragment's cut operator from the same one pass.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Fragment, PauliOp, _as_int, h, s, x
from .errors import SupportMismatch, TooWide
from .seeding import stream
from .simulator import (
    MAX_QUBITS,
    StateVector,
    apply_gates,
    basis_rotation,
    exact_distribution,
    sample,
    simulate,
)

MEASURED_BASES = (PauliOp.X, PauliOp.Y, PauliOp.Z)

PREP_LABELS = ("Zp", "Zm", "Xp", "Xm", "Yp", "Ym")

# Per side: the labels a key may give a cut, in the order of their data.
SIDE_LABELS = {"upstream": tuple(p.value for p in MEASURED_BASES), "downstream": PREP_LABELS}

_PREP_GATES = {
    "Zp": (),
    "Zm": (x,),
    "Xp": (h,),
    "Xm": (x, h),
    "Yp": (h, s),
    "Ym": (x, h, s),
}


def prep_state(label: str) -> np.ndarray:
    """The eigenstate vector the labeled prep gates produce from |0>."""
    zero = StateVector(np.array([1.0, 0.0], dtype=complex))
    return apply_gates(zero, [factory(0) for factory in _PREP_GATES[label]]).amplitudes


_PREP_AMPS = np.array([prep_state(lab) for lab in PREP_LABELS])


@dataclass(frozen=True)
class VariantKey:
    """The whole description of one executable variant.

    assignment maps cut_id to a basis label ("X", "Y", "Z") on the upstream
    side or a preparation label ("Zp" .. "Ym") downstream, as a tuple of
    (cut_id, label) pairs sorted by cut_id. readout lists the (local output
    qubit, "X" | "Y") pairs that a Pauli observable rotates to a Z readout,
    in the observable's order.
    """

    side: str
    assignment: tuple
    readout: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "assignment", tuple(sorted(
            (_as_int(c, "cut id"), str(l)) for c, l in self.assignment)))
        object.__setattr__(self, "readout", tuple(
            (_as_int(q, "readout qubit"), str(p)) for q, p in self.readout))

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


def _cuts(fragment: Fragment, side: str) -> tuple:
    cuts = (fragment.upstream_cut_qubits if side == "upstream"
            else fragment.downstream_cut_qubits)
    if not cuts:
        raise ValueError("fragment has no %s cut qubits" % side)
    return cuts


def _normalize_neglected(neglected):
    out = set()
    for cid, p in neglected or ():
        out.add((_as_int(cid, "neglected cut id"), p if isinstance(p, PauliOp) else PauliOp(p)))
    return frozenset(out)


def _neglected_by_cut(cut_ids, neglected):
    table = {cid: set() for cid in cut_ids}
    for cid, p in _normalize_neglected(neglected):
        if cid not in table:
            raise ValueError("neglected pair references unknown cut %r" % cid)
        if p is PauliOp.I:
            raise ValueError("the identity basis cannot be neglected")
        table[cid].add(p)
    return table


def _kept_labels(side: str, dropped) -> tuple:
    """The labels a cut keeps when the bases in dropped are neglected: each
    label goes with its basis, except that Z labels stay, since the
    identity row is read from them."""
    return tuple(lab for lab in SIDE_LABELS[side]
                 if lab[0] == "Z" or PauliOp(lab[0]) not in dropped)


def _readout(fragment: Fragment, obs) -> tuple:
    """The (output qubit, "X" | "Y") pairs a Pauli obs rotates to a Z readout."""
    readout = []
    if obs is not None and obs.kind == "pauli":
        for q, p in zip(obs.qubits, obs.paulis):
            if q not in fragment.output_qubits:
                raise SupportMismatch("observable qubit %d is not a fragment output" % q)
            if p in (PauliOp.X, PauliOp.Y):
                readout.append((q, p.value))
    return tuple(readout)


def _body(fragment: Fragment, readout) -> Circuit:
    """The fragment followed by the rotations of a readout."""
    rotations = [g for q, p in readout for g in basis_rotation(PauliOp(p), q)]
    return Circuit(fragment.circuit.n_qubits, tuple(fragment.circuit.gates) + tuple(rotations), ())


def _variants(fragment: Fragment, side: str, neglected, obs) -> list:
    cut_ids = [cid for cid, _ in _cuts(fragment, side)]
    dropped = _neglected_by_cut(cut_ids, neglected)
    readout = _readout(fragment, obs)
    allowed = [_kept_labels(side, dropped[cid]) for cid in cut_ids]
    return [VariantKey(side, tuple(zip(cut_ids, combo)), readout)
            for combo in itertools.product(*allowed)]


def upstream_variants(f1: Fragment, neglected=frozenset(), obs=None) -> list:
    """VariantKeys of every measurement setting kept for an upstream fragment.

    Each key measures every cut wire in its setting's basis and, when obs is
    a Pauli string, reads its X/Y factors on output wires out in Z.
    """
    return _variants(f1, "upstream", neglected, obs)


def downstream_variants(f2: Fragment, neglected=frozenset(), obs=None) -> list:
    """VariantKeys of every eigenstate preparation kept for a downstream fragment.

    Neglecting a non-Z basis drops its two preparations (6 per cut becomes
    4); readout is as for upstream_variants.
    """
    return _variants(f2, "downstream", neglected, obs)


def _upstream_states(fragment: Fragment, body: Circuit, keys):
    """Final state per key: the body runs once, each key adds the basis
    rotations of its settings on the cut wires, in cut_id order."""
    wires = dict(fragment.upstream_cut_qubits)
    state = simulate(body)
    for key in keys:
        yield apply_gates(state, [g for cid, lab in key.assignment
                                  for g in basis_rotation(PauliOp(lab), wires[cid])])


def _cut_columns(fragment: Fragment, body: Circuit) -> np.ndarray:
    """Row b: the body run on |b> at the cut wires (cut_id order, the first
    cut most significant) and |0> elsewhere. One pass runs all 2^K inputs:
    K reference axes after the body's own hold sum_b |b>|b>."""
    n = body.n_qubits
    if n > MAX_QUBITS:
        raise TooWide("%d qubits exceeds the %d-qubit cap" % (n, MAX_QUBITS))
    wires = [q for _, q in fragment.downstream_cut_qubits]
    k = len(wires)
    inputs = np.arange(2 ** k)
    rows = sum(((inputs >> (k - 1 - j)) & 1) << (n - 1 - q) for j, q in enumerate(wires))
    psi = np.zeros((2 ** n, 2 ** k), dtype=complex)
    psi[rows, inputs] = 1.0
    out = apply_gates(StateVector(psi.reshape(-1)), body.gates).amplitudes
    return out.reshape(2 ** n, 2 ** k).T


def cut_amplitudes(fragment: Fragment, obs=None) -> np.ndarray:
    """The cut operator as amplitudes psi[b, x] from one pass of the body
    (the fragment plus obs's readout rotations).

    b is the cut bits (cut_id order, the first cut most significant) and x
    the other local qubits in order. Upstream psi is the final state, so
    psi[b, x] conj(psi[b', x]) is the cut wires' density matrix with output
    x; downstream row b is the output on input |b> (_cut_columns), so that
    product is output x's response to |b><b'|. A fragment without cut
    qubits raises ValueError.
    """
    side = fragment.side
    wires = [q for _, q in _cuts(fragment, side)]
    body = _body(fragment, _readout(fragment, obs))
    if side == "downstream":
        return _cut_columns(fragment, body)
    n = body.n_qubits
    order = wires + [q for q in range(n) if q not in wires]
    psi = simulate(body).amplitudes.reshape((2,) * n).transpose(order)
    return psi.reshape(2 ** len(wires), -1)


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
    columns = _cut_columns(fragment, body)
    which = np.array([[PREP_LABELS.index(lab) for _, lab in key.assignment] for key in keys])
    rows = np.ones((len(keys), 1), dtype=complex)
    for j in range(which.shape[1]):
        rows = (rows[:, :, None] * _PREP_AMPS[which[:, j]][:, None, :]).reshape(len(keys), -1)
    for start in range(0, len(keys), _CHUNK):
        for amplitudes in rows[start:start + _CHUNK] @ columns:
            yield StateVector(amplitudes)


def run_fragment(fragment: Fragment, variants, shots=None, seed=0, seed_path=()):
    """Execute every VariantKey; exact or sampled probability vectors.

    Keys are grouped by readout, and each group's body is simulated once
    (downstream in one batched pass over the 2^K inputs of the cut wires);
    see the module docstring. Any list of keys of this fragment works, in
    any order; a key of another side, with other cut ids, an unknown label
    or a readout qubit that is not an output raises ValueError. shots None
    stores exact probability vectors (result shots 0); otherwise each
    variant stores its draw divided by shots, sampled with its own RNG
    stream derived from (seed, *seed_path, index), index being its position
    in variants, so results are deterministic and independent of execution
    order.
    """
    side = fragment.side
    n = fragment.circuit.n_qubits
    everything = tuple(range(n))
    cut_ids = tuple(cid for cid, _ in _cuts(fragment, side))
    groups = {}
    for i, key in enumerate(variants):
        if (key.side != side or tuple(cid for cid, _ in key.assignment) != cut_ids
                or any(lab not in SIDE_LABELS[side] for _, lab in key.assignment)
                or any(q not in fragment.output_qubits or p not in ("X", "Y")
                       for q, p in key.readout)):
            raise ValueError("variant %r does not fit the %s fragment with cuts %s"
                             % (key, side, cut_ids))
        groups.setdefault(key.readout, []).append(i)
    states = _upstream_states if side == "upstream" else _downstream_states
    results = [None] * len(variants)
    for readout, indices in groups.items():
        body = _body(fragment, readout)
        keys = [variants[i] for i in indices]
        for i, key, sv in zip(indices, keys, states(fragment, body, keys)):
            if shots is None:
                probs, used = exact_distribution(sv, everything), 0
            else:
                draws = sample(sv, everything, shots, stream(seed, *seed_path, i))
                probs, used = draws / shots, shots
            results[i] = VariantResult(key, probs, used, n, fragment.upstream_cut_qubits,
                                       fragment.output_qubits)
    return results
