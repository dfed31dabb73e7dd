"""Build signed fragment tensors and contract them into uncut results.

The upstream tensor A and downstream tensor B are indexed by a Pauli basis
tuple M with one entry per cut. Every tensor is made the same way: data
with one axis per cut, a fixed per-cut map applied along each of those
axes by _map_cuts (the wire-cut identity of Peng, Harrow, Ozols and Wu,
PRL 125, 150504, 2020), then FragmentTensor.pruned, the only code that
zeroes the rows of neglected bases. build_tensor reads variant results,
exact or sampled: six data columns per cut, upstream the (setting, outcome
bit) pairs X0 X1 Y0 Y1 Z0 Z1, downstream the preparations Zp Zm Xp Xm Yp
Ym, which a 4x6 map per side (SIDE_MAPS) takes to the basis rows I, X, Y,
Z. A Pauli row is the signed difference of its two columns, and the
identity row adds the two Z columns. operator_tensor reads the exact cut
operator instead: the four pairs (b, b') of computational bits per cut,
4^K data instead of 6^K variants, mapped by OPERATOR_MAPS. A neglected set
is checked once, by fragmenter's rule, wherever it is read. The uncut
expectation is (1/2^K) * sum over kept M of A[M] * B[M], and the uncut
distribution applies the same contraction per output bitstring pair.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .circuits import PauliOp
from .errors import ArityMismatch, GoldcutError, MissingVariant, SupportMismatch, WrongSide
from .fragmenter import SIDE_LABELS, _cuts, _kept_labels, _neglected_by_cut, cut_amplitudes
from .metrics import closed_form_counts

BASES = (PauliOp.I, PauliOp.X, PauliOp.Y, PauliOp.Z)
_BASE_INDEX = {p: i for i, p in enumerate(BASES)}
MAX_CUTS = 8

# Per side: the variant labels per cut, the data columns per label (one
# per outcome bit of the cut wire), and the 4x6 map from a cut's columns,
# label-major as in the module docstring, to the basis rows I, X, Y, Z.
SIDE_MAPS = {
    "upstream": (SIDE_LABELS["upstream"], 2, np.array([
        [0, 0, 0, 0, 1, 1],
        [1, -1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 0],
        [0, 0, 0, 0, 1, -1],
    ], dtype=float)),
    "downstream": (SIDE_LABELS["downstream"], 1, np.array([
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 0],
        [0, 0, 0, 0, 1, -1],
        [1, -1, 0, 0, 0, 0],
    ], dtype=float)),
}

# Per side: the 4x4 map from a cut's pairs (b, b') of computational bits,
# b' the faster index, to the basis rows I, X, Y, Z: upstream P[b', b], so a
# row is tr(P rho); downstream P[b, b'], the response to P at the input.
OPERATOR_MAPS = {
    "upstream": np.array([p.matrix.T.reshape(-1) for p in BASES]),
    "downstream": np.array([p.matrix.reshape(-1) for p in BASES]),
}


@dataclass
class FragmentTensor:
    """Dense signed tensor over basis tuples for one fragment.

    entries has shape (4,)*K in expectation mode and (4,)*K + (D,) in
    distribution mode, with axis order following sorted cut_ids and basis
    order I, X, Y, Z. Entries whose tuple touches a neglected (cut, basis)
    pair are zero.
    """

    side: str
    cut_ids: tuple
    mode: str
    entries: np.ndarray
    source: str
    neglected: frozenset
    output_bits: tuple = ()

    @property
    def n_cuts(self) -> int:
        return len(self.cut_ids)

    def entry(self, labels):
        """Look up one basis tuple, given per-cut PauliOps in cut_id order."""
        idx = tuple(_BASE_INDEX[p if isinstance(p, PauliOp) else PauliOp(p)]
                    for p in labels)
        return self.entries[idx]

    def pruned(self, neglected) -> "FragmentTensor":
        """This tensor with the rows of the neglected (cut_id, basis) pairs
        zeroed and the neglected set recorded; itself when it already has
        that set. neglected is checked as the variant enumerators check it.
        No other code zeroes rows."""
        dropped = _neglected_by_cut(self.cut_ids, neglected)
        neglected = frozenset((cid, p) for cid, ps in dropped.items() for p in ps)
        if neglected == self.neglected:
            return self
        mask = _kept(self.cut_ids, dropped)
        mask = mask.reshape(mask.shape + (1,) * (self.entries.ndim - self.n_cuts))
        return replace(self, entries=np.where(mask, self.entries, 0.0), neglected=neglected)


def _output_weights(obs, out_bits):
    """Per-bitstring observable values over the output bits, or None in
    distribution mode; a qubit that is not an output raises SupportMismatch."""
    for q in obs.qubits:
        if q not in out_bits:
            raise SupportMismatch("observable qubit %d is not a fragment output" % q)
    if obs.kind == "distribution":
        return None
    m = len(out_bits)
    idx = np.arange(2 ** m)
    w = np.ones(2 ** m)
    for q, f in zip(obs.qubits, obs.bits if obs.kind == "projector" else obs.paulis):
        have = (idx >> (m - 1 - out_bits.index(q))) & 1
        if obs.kind == "projector":
            w *= have == int(f)
        elif f is not PauliOp.I:
            w *= 1.0 - 2.0 * have
    return w


def _check_cuts(k: int):
    if k > MAX_CUTS:
        raise GoldcutError("tensor capped at %d cuts, got %d" % (MAX_CUTS, k))


def _map_cuts(cut_map, data, k):
    """cut_map applied along each of the first k axes of data, one axis of
    columns per cut: 4 basis rows per cut, the other axes flattened."""
    for j in range(k):
        data = np.matmul(cut_map, data.reshape(4 ** j, cut_map.shape[1], -1))
    return data.reshape(4 ** k, -1)


def _tensor(side, cut_ids, obs, entries, source, out_bits) -> FragmentTensor:
    """The FragmentTensor of mapped entries, nothing neglected; an exact
    projector entry beyond 2^K raises GoldcutError."""
    dist = obs.kind == "distribution"
    if source == "exact" and obs.kind == "projector":
        bound = 2.0 ** len(cut_ids)
        if not np.all(np.abs(entries) <= bound + 1e-9):
            raise GoldcutError("projector tensor entry exceeds the bound 2^K = %g" % bound)
    entries = entries.reshape((4,) * len(cut_ids) + ((-1,) if dist else ()))
    return FragmentTensor(side, cut_ids, "distribution" if dist else "expectation",
                          entries, source, frozenset(), out_bits if dist else ())


def build_tensor(results, obs, side, neglected=frozenset()) -> FragmentTensor:
    """Assemble the signed tensor for one side from its variant results.

    Each result supplies data columns per cut (see SIDE_MAPS); the tensor is
    the side's 4x6 map applied along every cut axis, then pruned of the
    (cut_id, basis) pairs in neglected. The variants that
    upstream_variants / downstream_variants keep for neglected must be
    present; others may be, and feed only pruned rows. For a repeated key
    the last result counts.
    """
    if not results:
        raise MissingVariant("no variant results")
    for r in results:
        if r.key.side != side:
            raise WrongSide("expected %s results, got %s" % (side, r.key.side))
    exact = {r.shots == 0 for r in results}
    if len(exact) != 1:
        raise ValueError("mixed exact and shot results")
    source = "exact" if exact == {True} else "shots"

    cut_ids = tuple(sorted(cid for cid, _ in results[0].key.assignment))
    k = len(cut_ids)
    _check_cuts(k)
    dropped = _neglected_by_cut(cut_ids, neglected)
    labels, per_label, side_map = SIDE_MAPS[side]
    measured = cut_ids if side == "upstream" else ()
    dist = obs.kind == "distribution"

    # Data per result: its probabilities with the measured cut bits first
    # (cut_id order) and the output bits after them, one axis per cut bit.
    n = results[0].n_bits
    pos = dict(results[0].cut_bits)
    cut_axes = [pos[cid] for cid in measured]
    out_bits = tuple(q for q in range(n) if q not in cut_axes)
    weights = _output_weights(obs, out_bits)
    tail = (2 ** len(out_bits),) if dist else ()
    by_first = {}
    for r in results:
        data = r.probs.reshape((2,) * n).transpose(cut_axes + list(out_bits))
        data = data.reshape(per_label ** k, -1)
        if not dist:
            data = data @ weights
        key = tuple(r.key.label(cid) for cid in cut_ids)
        by_first.setdefault(key[0], {})[key[1:]] = data.reshape((per_label,) * k + tail)
    for key in itertools.product(*(_kept_labels(side, dropped[cid]) for cid in cut_ids)):
        if key[1:] not in by_first.get(key[0], ()):
            raise MissingVariant("missing %s variant %s" % (side, key))

    # Mode products one column of the first cut at a time, so that only a
    # 6^(K-1) block of data is held, never all 6^K columns at once.
    entries = np.zeros((4, 4 ** (k - 1) * int(np.prod(tail))))
    shape = (len(labels), per_label) * (k - 1) + tail
    for col in range(side_map.shape[1]):
        first, bit = divmod(col, per_label)
        if labels[first] in by_first:
            block = _map_cuts(side_map, _block(by_first[labels[first]], bit, labels, shape),
                              k - 1)
            for basis in np.flatnonzero(side_map[:, col]):
                entries[basis] += side_map[basis, col] * block.reshape(-1)
            del block  # freed before the next block is mapped
    return _tensor(side, cut_ids, obs, entries, source, out_bits).pruned(neglected)


def _block(rows, bit, labels, shape):
    """The data of cuts 2..K at one outcome bit of the first cut, from
    {labels of cuts 2..K: data}: one axis per cut, split as (label, outcome
    bit) so that its columns are ordered as the side's map. Passed straight
    to _map_cuts, which then holds its only reference."""
    block = np.zeros(shape)
    for rest, data in rows.items():
        block[tuple(x for lab in rest for x in (labels.index(lab), slice(None)))] = data[bit]
    return block


def operator_tensor(fragment, obs) -> FragmentTensor:
    """The exact tensor of one fragment from its cut operator, nothing
    neglected; equal to build_tensor over every variant's exact result.

    psi[b, x] comes from one simulation (fragmenter.cut_amplitudes). The
    data is psi[b, x] conj(psi[b', x]), with the observable's output weights
    summed in first outside distribution mode, and each cut's (b, b') pair
    is one axis for its OPERATOR_MAPS matrix.
    """
    side = fragment.side
    cut_ids = tuple(cid for cid, _ in _cuts(fragment, side))
    k = len(cut_ids)
    _check_cuts(k)
    measured = {q for _, q in fragment.upstream_cut_qubits}
    out_bits = tuple(q for q in range(fragment.circuit.n_qubits) if q not in measured)
    weights = _output_weights(obs, out_bits)
    psi = cut_amplitudes(fragment, obs)
    if weights is None:
        data = psi[:, None, :] * psi[None, :, :].conj()
    else:
        data = (psi * weights) @ psi.conj().T
    pairs = [a for j in range(k) for a in (j, k + j)]
    data = data.reshape((2,) * (2 * k) + (-1,)).transpose(pairs + [2 * k])
    return _tensor(side, cut_ids, obs, _map_cuts(OPERATOR_MAPS[side], data, k).real,
                   "exact", out_bits)


def combine_tensors(tensors, coeffs) -> FragmentTensor:
    """Linear combination of tensors built from the same variants.

    Tensors are linear in the observable, so an observable like a half-sum
    of Pauli strings can be assembled from per-string tensors.
    """
    first = tensors[0]
    for t in tensors[1:]:
        if (t.side, t.cut_ids, t.mode, t.neglected) != (
            first.side, first.cut_ids, first.mode, first.neglected
        ):
            raise ArityMismatch("tensors disagree in shape or metadata")
    entries = sum(c * t.entries for c, t in zip(coeffs, tensors))
    source = "exact" if all(t.source == "exact" for t in tensors) else "shots"
    return FragmentTensor(first.side, first.cut_ids, first.mode, entries, source,
                          first.neglected, first.output_bits)


@dataclass
class Reconstruction:
    """Contraction output: a value or quasi-distribution plus term ledger."""

    mode: str
    value: object
    raw: object
    terms_evaluated: int
    neglected: frozenset


def _kept(cut_ids, dropped):
    """Boolean (4,)*K mask of the basis tuples that avoid every dropped
    basis, dropped as _neglected_by_cut gives it."""
    rows = [np.array([p not in dropped[cid] for p in BASES]) for cid in cut_ids]
    return reduce(np.multiply.outer, rows[1:], rows[0])


def _kept_rows(a: FragmentTensor, b: FragmentTensor, mode: str):
    """Both tensors' entries over the basis tuples that avoid their
    neglected set, one row per tuple, after the checks the contractions
    share."""
    if a.side != "upstream" or b.side != "downstream":
        raise WrongSide("contract takes (upstream, downstream) tensors")
    if a.cut_ids != b.cut_ids:
        raise ArityMismatch("cut interfaces differ: %s vs %s" % (a.cut_ids, b.cut_ids))
    if a.neglected != b.neglected:
        raise ArityMismatch("tensors were built with different neglected sets")
    if a.mode != mode or b.mode != mode:
        raise ArityMismatch("contract_%s needs %s-mode tensors" % (mode, mode))
    mask = _kept(a.cut_ids, _neglected_by_cut(a.cut_ids, a.neglected)).reshape(-1)
    return a.entries.reshape(mask.size, -1)[mask], b.entries.reshape(mask.size, -1)[mask]


def contract_expectation(a: FragmentTensor, b: FragmentTensor) -> Reconstruction:
    """(1/2^K) * sum of A[M]*B[M] over tuples avoiding the tensors' neglected bases."""
    av, bv = _kept_rows(a, b, "expectation")
    value = float((av * bv).sum() / 2 ** a.n_cuts)
    return Reconstruction("expectation", value, value, len(av), a.neglected)


def contract_distribution(a: FragmentTensor, b: FragmentTensor) -> Reconstruction:
    """Per-bitstring contraction; value clamps negatives and renormalizes.

    The result covers concatenated bitstrings, upstream output bits first.
    raw keeps the unclamped quasi-distribution for diagnostics.
    """
    av, bv = _kept_rows(a, b, "distribution")
    raw = (av.T @ bv).reshape(-1) / 2 ** a.n_cuts
    clamped = np.clip(raw, 0.0, None)
    total = clamped.sum()
    value = clamped / total if total > 0 else clamped
    return Reconstruction("distribution", value, raw, len(av), a.neglected)


def term_count(k_regular: int, k_golden: int):
    """(basis tuples, eigen-terms) for a contraction with the given cut mix.

    Each golden cut keeps 3 of 4 basis entries (metrics.closed_form_counts);
    every tuple expands into 4 signed eigenvalue terms per cut (2 upstream
    outcomes x 2 preparations).
    """
    tuples = closed_form_counts(k_regular, k_golden)[0].basis_tuples
    return tuples, tuples * 4 ** (k_regular + k_golden)
