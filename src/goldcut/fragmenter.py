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
every cut axis of psi, each block of leading-cut labels straight from
psi, and each key picks its rows by label index; upstream the outcome
bits then move back to their wires. Each variant's result is one
probability vector over its local qubits: the exact Born probabilities,
or the frequencies of a multinomial draw of so many shots, all draws of
a call taken in turn from one seeded stream.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circuits import Circuit, Fragment, PauliOp, _as_int, _unchecked, h, s, x
from .errors import GoldcutError, SupportMismatch, TooWide
from .seeding import stream
from .simulator import (
    MAX_QUBITS,
    _run,
    apply_gates,
    basis_rotation,
    check_shots,
    exact_distribution,
    sample,
    simulate,
)

MEASURED_BASES = (PauliOp.X, PauliOp.Y, PauliOp.Z)
MAX_CUTS = 8

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
    """maps[j] along the j-th axis of columns of data (its leading axes, in
    C order): the rows of every map, in cut order, then the rest."""
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


@dataclass
class VariantResult:
    """Execution record for one variant.

    probs is indexed by bitstring over the fragment's n local qubits (its
    length is 2^n), bit position i being local qubit i: the exact Born
    probabilities when shots is 0, otherwise the frequencies of that many
    shots. cut_bits lists the (cut_id, position) pairs of the measured cut
    wires, by cut id; the other positions are the output bits, in order.
    """

    key: VariantKey
    probs: np.ndarray
    shots: int
    cut_bits: tuple


def _check_cuts(k: int):
    if k > MAX_CUTS:
        raise GoldcutError("tensor capped at %d cuts, got %d" % (MAX_CUTS, k))


def _cuts(fragment: Fragment, side: str) -> tuple:
    """The fragment's (cut_id, qubit) pairs on side, read before anything
    runs: none raises ValueError and more than MAX_CUTS GoldcutError."""
    cuts = (fragment.upstream_cut_qubits if side == "upstream"
            else fragment.downstream_cut_qubits)
    if not cuts:
        raise ValueError("fragment has no %s cut qubits" % side)
    _check_cuts(len(cuts))
    return cuts


def _key_index(key: VariantKey, side: str, cut_ids) -> list:
    """The index in SIDE_LABELS[side] of key's label at each cut; a key of
    another side, with other cut ids than the tuple cut_ids or with a label
    its side lacks raises ValueError."""
    labels = SIDE_LABELS[side]
    if (key.side != side or tuple(cid for cid, _ in key.assignment) != cut_ids
            or any(lab not in labels for _, lab in key.assignment)):
        raise ValueError("variant %r does not fit the %s fragment with cuts %s"
                         % (key, side, cut_ids))
    return [labels.index(lab) for _, lab in key.assignment]


def _pairs(neglected) -> list:
    """neglected's items; one that is not a (cut_id, basis) pair raises ValueError."""
    items = list(neglected or ())
    for item in items:
        if not isinstance(item, (tuple, list)) or len(item) != 2:
            raise ValueError("a neglected item is a (cut_id, basis) pair, got %r" % (item,))
    return items


class _Checked(frozenset):
    """A neglected set as _neglected_by_cut leaves it: (int cut_id, PauliOp) pairs."""


def _neglected_by_cut(cut_ids, neglected) -> _Checked:
    """neglected checked for the cuts cut_ids (a sequence) and normalized."""
    checked = _Checked((_as_int(c, "neglected cut id"), PauliOp(p)) for c, p in _pairs(neglected))
    for cid, p in checked:
        if cid not in cut_ids:
            raise ValueError("neglected pair references unknown cut %r" % cid)
        if p is PauliOp.I:
            raise ValueError("the identity basis cannot be neglected")
    return checked


def _checked(cut_ids, neglected) -> _Checked:
    """neglected as _neglected_by_cut leaves it, checking neither an empty
    set nor one it made whose pairs are all at cuts in cut_ids."""
    if isinstance(neglected, _Checked) and all(c in cut_ids for c, _ in neglected):
        return neglected
    return _neglected_by_cut(cut_ids, neglected) if neglected else _Checked()


def _kept_labels(side: str, dropped) -> tuple:
    """The labels a cut keeps when the bases in dropped are neglected: each
    label goes with its basis, except that Z labels stay, since the
    identity row is read from them."""
    letters = {p.value for p in dropped}
    return tuple(lab for lab in SIDE_LABELS[side] if lab[0] == "Z" or lab[0] not in letters)


def _read(obs, outputs):
    """How a fragment reads obs off its output qubits: (readout, weights).

    readout is the (output qubit, "X" | "Y") pairs that obs's Pauli factors
    rotate to a Z readout, in obs order; weights the observable's value per
    bitstring over outputs (in their order), read-only, kept on obs per
    outputs, or None in distribution mode. A qubit that is not an output,
    or a distribution that names other than every output in order (an
    empty support is short for that), raises SupportMismatch.
    """
    outputs = tuple(outputs)
    if obs.kind != "distribution":
        return obs._keep("_reads", outputs, lambda: _weights(obs, outputs))
    if obs.qubits not in ((), outputs):
        raise SupportMismatch("a distribution reads the fragment outputs %s in order, got %s"
                              % (list(outputs), list(obs.qubits)))
    return (), None


def _weights(obs, outputs):
    """_read of a Pauli string or projector, made once per obs and outputs."""
    for q in obs.qubits:
        if q not in outputs:
            raise SupportMismatch("observable qubit %d is not a fragment output" % q)
    # weights: the outer product of one 2-vector per output, (1, -1) for a
    # Pauli factor, (1, 0) or (0, 1) for a projector bit, else (1, 1)
    readout, factors = [], {}
    for q, f in zip(obs.qubits, obs.bits if obs.kind == "projector" else obs.paulis):
        if obs.kind == "projector":
            factors[q] = (f == "0", f == "1")
        elif f is not PauliOp.I:
            factors[q] = (1.0, -1.0)
            if f is not PauliOp.Z:
                readout.append((q, f.value))
    weights = reduce(np.multiply.outer, [factors.get(q, (1.0, 1.0)) for q in outputs], np.ones(()))
    weights = weights.reshape(-1)
    weights.setflags(write=False)
    return tuple(readout), weights


def _variants(fragment: Fragment, side: str, neglected, obs) -> list:
    cut_ids = [cid for cid, _ in _cuts(fragment, side)]
    neglected = _checked(cut_ids, neglected)
    readout = () if obs is None else _read(obs, fragment.output_qubits)[0]
    allowed = [_kept_labels(side, {p for c, p in neglected if c == cid}) for cid in cut_ids]
    return [_unchecked(VariantKey, side=side, assignment=tuple(zip(cut_ids, combo)),
                       readout=readout) for combo in itertools.product(*allowed)]


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


def _layout(fragment):
    """(wires, order, back, start) of the fragment's pass: the cut wires in
    cut order; the axes of its state, cut wires first upstream, qubit order
    downstream; back the transpose of a batch of such states to qubit order;
    start the read-only 2^K identity a downstream pass starts from, or None."""
    side, n = fragment.side, fragment.circuit.n_qubits
    wires, start = tuple(q for _, q in _cuts(fragment, side)), None
    if side == "upstream":
        order = [*wires, *(q for q in range(n) if q not in wires)]
    elif n > MAX_QUBITS:
        raise TooWide("%d qubits exceeds the %d-qubit cap" % (n, MAX_QUBITS))
    else:
        order, start = list(range(n)), np.eye(2 ** len(wires), dtype=complex)
        start.setflags(write=False)
    return wires, order, [0, *(1 + order.index(q) for q in range(n))], start


def cut_amplitudes(fragment: Fragment, readout=()) -> np.ndarray:
    """The cut operator as amplitudes psi[b, x] from one pass of the body
    (the fragment plus the rotations of readout, (output qubit, "X" | "Y")
    pairs as in VariantKey.readout).

    b is the cut bits (cut_id order, the first cut most significant) and x
    the other local qubits in order. Upstream psi is the final state, so
    psi[b, x] conj(psi[b', x]) is the cut wires' density matrix with output
    x; downstream row b is the output on input |b> at the cut wires and |0>
    elsewhere, so that product is output x's response to |b><b'|. The
    downstream pass runs all 2^K inputs at once, as a batch over the cut
    wires (simulator._run from the 2^K identity): it holds 2^n x 2^K
    amplitudes at most, and the MAX_QUBITS cap bounds the fragment's n. A
    fragment without cut qubits, or a readout pair on a qubit that is not
    an output or with another label, raises ValueError. The fragment keeps
    its pass layout and start, its body per readout, the body its program.
    """
    wires, order, _, start = fragment._keep("_layout", None, lambda: _layout(fragment))
    readout = tuple(map(tuple, readout))
    if any(q not in fragment.output_qubits or p not in ("X", "Y") for q, p in readout):
        raise ValueError("readout %r does not fit the fragment outputs %s"
                         % (readout, fragment.output_qubits))
    body = fragment._keep("_bodies", readout, lambda: Circuit(
        fragment.circuit.n_qubits, fragment.circuit.gates + tuple(
            g for q, p in readout for g in basis_rotation(PauliOp(p), q)), ()))
    if start is None:
        n = body.n_qubits
        return simulate(body).reshape((2,) * n).transpose(order).reshape(2 ** len(wires), -1)
    return _run(body, start, wires).T


def run_fragment(fragment: Fragment, variants, shots=None, seed=0, seed_path=()):
    """Execute every VariantKey; exact or sampled probability vectors.

    Keys are grouped by readout, and each group's states are mapped from
    one cut_amplitudes pass of its body; see the module docstring. Any list
    of keys of this fragment works, in any order. Shots that check_shots
    rejects, or a key of another side, with other cut ids or an unknown
    label, raise ValueError before anything runs, and a readout that
    cut_amplitudes rejects before its group runs. shots None stores exact
    probability vectors (result shots 0); otherwise each variant stores its
    draw divided by shots. The keys draw in turn from one stream, (seed,
    *seed_path), in canonical order (readout, label index per cut, list
    order), so a key's result depends on the keys passed, not their order.
    """
    side = fragment.side
    n = fragment.circuit.n_qubits
    everything = tuple(range(n))
    cut_ids = tuple(cid for cid, _ in _cuts(fragment, side))
    if shots is not None:
        check_shots(shots)
        rng = stream(seed, *seed_path)
    canonical = sorted((key.readout, tuple(_key_index(key, side, cut_ids)), i)
                       for i, key in enumerate(variants))
    labels, table = SIDE_LABELS[side], AMPLITUDE_MAPS[side]
    per_label = len(table) // len(labels)
    by_label = table.reshape(len(labels), per_label, -1)
    # A block fixes the labels of all but the last two cuts, so whatever K
    # is it holds the states of 9 upstream or 36 downstream keys.
    k = len(cut_ids)
    lead = max(k - 2, 0)
    shape = (per_label,) * lead + (len(labels), per_label) * (k - lead) + (-1,)
    _, _, back, _ = fragment._keep("_layout", None, lambda: _layout(fragment))
    results = [None] * len(variants)
    for readout, group in itertools.groupby(canonical, key=lambda e: e[0]):
        psi = np.ascontiguousarray(cut_amplitudes(fragment, readout))  # once, not per block
        for head, members in itertools.groupby(group, key=lambda e: e[1][:lead]):
            phi = _map_cuts([by_label[j] for j in head] + [table] * (k - lead), psi).reshape(shape)
            members = list(members)
            picks = zip(*(index[lead:] for _, index, _ in members))
            states = phi[(slice(None),) * lead + sum(((list(j), slice(None)) for j in picks), ())]
            states = states.reshape((-1,) + (2,) * n).transpose(back).reshape(len(members), -1)
            for (_, _, i), amplitudes in zip(members, states):
                if shots is None:
                    probs, used = exact_distribution(amplitudes, everything), 0
                else:
                    probs, used = sample(amplitudes, everything, shots, rng) / shots, shots
                results[i] = VariantResult(variants[i], probs, used, fragment.upstream_cut_qubits)
    return results
