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
groups the keys by readout and takes each group's cut amplitudes psi[b, x]
from one pass of its body (the fragment plus its readout rotations,
cut_amplitudes), the pass operator_tensor reads too. One 6x2 table per
side (AMPLITUDE_MAPS) takes a cut's computational bit to the amplitude
rows of its labels: upstream the bras of each setting's +1 and -1
eigenstates (rows X0 X1 Y0 Y1 Z0 Z1, the outcome bit last), downstream
the preparations' eigenstates (Zp .. Ym). _map_cuts applies it along
every cut axis of psi, one block of leading-cut labels at a time, and
each key picks its rows by label index; upstream the outcome bits then
move back to their wires. Each variant's result is one probability
vector over its local qubits: the exact Born probabilities, or the
frequencies of a multinomial draw of so many shots.
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
    return apply_gates(np.array([1.0, 0.0], dtype=complex),
                       [factory(0) for factory in _PREP_GATES[label]])


# Per side: a cut's map from its computational bit to the amplitude rows of
# its labels, in SIDE_LABELS x outcome-bit order. Upstream a setting's two
# rows are the bras of its +1 and -1 eigenstates (outcome bits 0 and 1);
# downstream a preparation's one row is its eigenstate.
AMPLITUDE_MAPS = {
    "upstream": np.array([prep_state(p + s) for p in SIDE_LABELS["upstream"]
                          for s in "pm"]).conj(),
    "downstream": np.array([prep_state(lab) for lab in PREP_LABELS]),
}


def _map_cuts(maps, data):
    """maps[j] applied along axis j of data, one axis of columns per cut and
    the other axes flattened after them: the rows of every map, in cut
    order, then the rest."""
    rows = 1
    for cut_map in maps:
        data = np.matmul(cut_map, data.reshape(rows, cut_map.shape[1], -1))
        rows *= cut_map.shape[0]
    return data.reshape(rows, -1)


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
    return frozenset((_as_int(cid, "neglected cut id"), PauliOp(p)) for cid, p in neglected or ())


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


def _read(obs, outputs):
    """How a fragment reads obs off its output qubits: (readout, weights).

    readout is the (output qubit, "X" | "Y") pairs that obs's Pauli factors
    rotate to a Z readout, in obs order; weights the observable's value per
    bitstring over outputs (in their order), or None in distribution mode.
    A qubit that is not an output, or a distribution that names other than
    every output in order (an empty support is short for that), raises
    SupportMismatch.
    """
    for q in obs.qubits:
        if q not in outputs:
            raise SupportMismatch("observable qubit %d is not a fragment output" % q)
    if obs.kind == "distribution":
        if obs.qubits not in ((), tuple(outputs)):
            raise SupportMismatch("a distribution reads the fragment outputs %s in order, got %s"
                                  % (list(outputs), list(obs.qubits)))
        return (), None
    m = len(outputs)
    idx = np.arange(2 ** m)
    readout, weights = [], np.ones(2 ** m)
    for q, f in zip(obs.qubits, obs.bits if obs.kind == "projector" else obs.paulis):
        have = (idx >> (m - 1 - outputs.index(q))) & 1
        if obs.kind == "projector":
            weights *= have == int(f)
        elif f is not PauliOp.I:
            weights *= 1.0 - 2.0 * have
            if f is not PauliOp.Z:
                readout.append((q, f.value))
    return tuple(readout), weights


def _variants(fragment: Fragment, side: str, neglected, obs) -> list:
    cut_ids = [cid for cid, _ in _cuts(fragment, side)]
    dropped = _neglected_by_cut(cut_ids, neglected)
    readout = () if obs is None else _read(obs, fragment.output_qubits)[0]
    allowed = [_kept_labels(side, dropped[cid]) for cid in cut_ids]
    return [VariantKey(side, tuple(zip(cut_ids, combo)), readout)
            for combo in itertools.product(*allowed)]


def upstream_variants(f1: Fragment, neglected=frozenset(), obs=None) -> list:
    """VariantKeys of every measurement setting kept for an upstream fragment.

    Each key measures every cut wire in its setting's basis and, when obs is
    a Pauli string, reads its X/Y factors on output wires out in Z. An obs
    the fragment cannot read (see _read) raises SupportMismatch.
    """
    return _variants(f1, "upstream", neglected, obs)


def downstream_variants(f2: Fragment, neglected=frozenset(), obs=None) -> list:
    """VariantKeys of every eigenstate preparation kept for a downstream fragment.

    Neglecting a non-Z basis drops its two preparations (6 per cut becomes
    4); readout is as for upstream_variants.
    """
    return _variants(f2, "downstream", neglected, obs)


def cut_amplitudes(fragment: Fragment, readout=()) -> np.ndarray:
    """The cut operator as amplitudes psi[b, x] from one pass of the body
    (the fragment plus the rotations of readout, (output qubit, "X" | "Y")
    pairs as in VariantKey.readout).

    b is the cut bits (cut_id order, the first cut most significant) and x
    the other local qubits in order. Upstream psi is the final state, so
    psi[b, x] conj(psi[b', x]) is the cut wires' density matrix with output
    x; downstream row b is the output on input |b> at the cut wires and |0>
    elsewhere, so that product is output x's response to |b><b'|. The
    downstream pass runs all 2^K inputs at once: K reference axes after the
    body's own hold sum_b |b>|b>, so it simulates n + K qubits: the
    MAX_QUBITS cap bounds the fragment's n, not that pass. A fragment
    without cut qubits, or a readout pair on a qubit that is not an output
    or with another label, raises ValueError.
    """
    side = fragment.side
    wires = [q for _, q in _cuts(fragment, side)]
    if any(q not in fragment.output_qubits or p not in ("X", "Y") for q, p in readout):
        raise ValueError("readout %r does not fit the fragment outputs %s"
                         % (tuple(readout), fragment.output_qubits))
    rotations = [g for q, p in readout for g in basis_rotation(PauliOp(p), q)]
    body = Circuit(fragment.circuit.n_qubits, tuple(fragment.circuit.gates) + tuple(rotations), ())
    n, k = body.n_qubits, len(wires)
    if side == "upstream":
        order = wires + [q for q in range(n) if q not in wires]
        return simulate(body).reshape((2,) * n).transpose(order).reshape(2 ** k, -1)
    if n > MAX_QUBITS:
        raise TooWide("%d qubits exceeds the %d-qubit cap" % (n, MAX_QUBITS))
    inputs = np.arange(2 ** k)
    rows = sum(((inputs >> (k - 1 - j)) & 1) << (n - 1 - q) for j, q in enumerate(wires))
    psi = np.zeros((2 ** n, 2 ** k), dtype=complex)
    psi[rows, inputs] = 1.0
    return apply_gates(psi.reshape(-1), body.gates).reshape(2 ** n, 2 ** k).T


def run_fragment(fragment: Fragment, variants, shots=None, seed=0, seed_path=()):
    """Execute every VariantKey; exact or sampled probability vectors.

    Keys are grouped by readout, and each group's states are mapped from
    one cut_amplitudes pass of its body; see the module docstring. Any list
    of keys of this fragment works, in any order; a key of another side,
    with other cut ids, an unknown label or a readout that cut_amplitudes
    rejects raises ValueError. shots None stores exact probability vectors
    (result shots 0); otherwise each variant stores its draw divided by
    shots, sampled with its own RNG stream derived from (seed, *seed_path,
    index), index being its position in variants, so results are
    deterministic and independent of execution order.
    """
    side = fragment.side
    n = fragment.circuit.n_qubits
    everything = tuple(range(n))
    cut_ids = tuple(cid for cid, _ in _cuts(fragment, side))
    labels = SIDE_LABELS[side]
    # A block fixes the labels of all but the last two cuts, so whatever K
    # is it holds the states of 9 upstream or 36 downstream keys.
    lead = max(len(cut_ids) - 2, 0)
    groups = {}
    for i, key in enumerate(variants):
        if (key.side != side or tuple(cid for cid, _ in key.assignment) != cut_ids
                or any(lab not in labels for _, lab in key.assignment)):
            raise ValueError("variant %r does not fit the %s fragment with cuts %s"
                             % (key, side, cut_ids))
        index = [labels.index(lab) for _, lab in key.assignment]
        rows = (slice(None),) * lead + tuple(x for j in index[lead:] for x in (j, slice(None)))
        groups.setdefault(key.readout, {}).setdefault(tuple(index[:lead]), []).append((i, rows))
    table = AMPLITUDE_MAPS[side]
    per_label = len(table) // len(labels)
    shape = (per_label,) * lead + (len(labels), per_label) * (len(cut_ids) - lead) + (-1,)
    wires = [q for _, q in fragment.upstream_cut_qubits]
    back = [0, *(1 + np.argsort(wires + [q for q in range(n) if q not in wires]))]
    results = [None] * len(variants)
    for readout, blocks in groups.items():
        # downstream psi is a transposed view: copied once here, not per block
        psi = np.ascontiguousarray(cut_amplitudes(fragment, readout))
        for first, members in blocks.items():
            maps = [table[per_label * j:per_label * (j + 1)] for j in first]
            phi = _map_cuts(maps + [table] * (len(cut_ids) - lead), psi).reshape(shape)
            states = np.array([phi[rows] for _, rows in members]).reshape((-1,) + (2,) * n)
            for (i, _), amplitudes in zip(members, states.transpose(back).reshape(len(members), -1)):
                if shots is None:
                    probs, used = exact_distribution(amplitudes, everything), 0
                else:
                    draws = sample(amplitudes, everything, shots, stream(seed, *seed_path, i))
                    probs, used = draws / shots, shots
                results[i] = VariantResult(variants[i], probs, used, n,
                                           fragment.upstream_cut_qubits, fragment.output_qubits)
    return results
