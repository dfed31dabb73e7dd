"""Build signed fragment tensors and contract them into uncut results.

The upstream tensor A and downstream tensor B are indexed by a Pauli basis
tuple M with one entry per cut. Every tensor is made the same way: data
with one axis per cut, a fixed per-cut map applied along each of those
axes by fragmenter._map_cuts, the helper that also maps every variant's
amplitudes in run_fragment (the wire-cut identity of Peng, Harrow, Ozols
and Wu, PRL 125, 150504, 2020), then FragmentTensor.pruned, the only code
that zeroes the rows of neglected bases. build_tensor reads variant results,
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
contract_operator gives the exact result without building B: the sum over
M moves onto A, which the transposed downstream OPERATOR_MAPS take to one
cut operator per upstream output, contracted with the downstream psi.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .circuits import PauliOp
from .errors import ArityMismatch, GoldcutError, MissingVariant, WrongSide
from .fragmenter import SIDE_LABELS, _cuts, _kept_labels, _map_cuts, _neglected_by_cut
from .fragmenter import _read, cut_amplitudes
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
# Per cut it is SIDE_MAPS times the map from (b, b') to the |amplitude|^2
# of fragmenter.AMPLITUDE_MAPS's rows, so both builders agree.
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
        return self.entries[tuple(_BASE_INDEX[PauliOp(p)] for p in labels)]

    def pruned(self, neglected) -> "FragmentTensor":
        """This tensor with the rows of the neglected (cut_id, basis) pairs
        zeroed and the neglected set recorded; itself when it already has
        that set. neglected is checked as the variant enumerators check it,
        and a set that leaves out a basis already neglected raises
        ValueError, since its zeroed rows cannot come back. No other code
        zeroes rows."""
        dropped = _neglected_by_cut(self.cut_ids, neglected)
        neglected = frozenset((cid, p) for cid, ps in dropped.items() for p in ps)
        if not self.neglected <= neglected:
            raise ValueError("cannot restore neglected bases %s"
                             % sorted((c, p.value) for c, p in self.neglected - neglected))
        if neglected == self.neglected:
            return self
        mask = _kept(self.cut_ids, dropped)
        mask = mask.reshape(mask.shape + (1,) * (self.entries.ndim - self.n_cuts))
        return replace(self, entries=np.where(mask, self.entries, 0.0), neglected=neglected)


def _check_cuts(k: int):
    if k > MAX_CUTS:
        raise GoldcutError("tensor capped at %d cuts, got %d" % (MAX_CUTS, k))


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
    the last result counts. Every result must be read out as obs needs (its
    X/Y factors, in obs order), share the first result's (n_bits, cut_bits,
    output_bits) and hold 2^n_bits probabilities; otherwise ValueError.
    """
    if not results:
        raise MissingVariant("no variant results")
    layout = (results[0].n_bits, results[0].cut_bits, results[0].output_bits)
    for r in results:
        if r.key.side != side:
            raise WrongSide("expected %s results, got %s" % (side, r.key.side))
        if (r.n_bits, r.cut_bits, r.output_bits) != layout:
            raise ValueError("result bits %s differ from the first result's %s"
                             % ((r.n_bits, r.cut_bits, r.output_bits), layout))
        if np.size(r.probs) != 2 ** r.n_bits:
            raise ValueError("result holds %d probabilities for %d bits"
                             % (np.size(r.probs), r.n_bits))
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
    n, cut_bits, out_bits = layout
    pos = dict(cut_bits)
    cut_axes = [pos[cid] for cid in measured]
    readout, weights = _read(obs, out_bits)
    tail = (2 ** len(out_bits),) if dist else ()
    by_first = {}
    for r in results:
        if r.key.readout != readout:
            raise ValueError("variant read out as %s, the observable needs %s"
                             % (r.key.readout, readout))
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
            block = _map_cuts([side_map] * (k - 1),
                              _block(by_first[labels[first]], bit, labels, shape))
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
    readout, weights = _read(obs, fragment.output_qubits)
    psi = cut_amplitudes(fragment, readout)
    if weights is None:
        data = psi[:, None, :] * psi[None, :, :].conj()
    else:
        data = (psi * weights) @ psi.conj().T
    pairs = [a for j in range(k) for a in (j, k + j)]
    data = data.reshape((2,) * (2 * k) + (-1,)).transpose(pairs + [2 * k])
    return _tensor(side, cut_ids, obs, _map_cuts([OPERATOR_MAPS[side]] * k, data).real,
                   "exact", fragment.output_qubits)


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


def _reconstruction(mode, raw, terms, neglected) -> Reconstruction:
    """The Reconstruction of a contracted raw result. A distribution's value
    clamps negatives and renormalizes; raw keeps the unclamped
    quasi-distribution for diagnostics."""
    if mode == "expectation":
        value = float(raw)
        return Reconstruction(mode, value, value, terms, neglected)
    clamped = np.clip(raw, 0.0, None)
    total = clamped.sum()
    value = clamped / total if total > 0 else clamped
    return Reconstruction(mode, value, raw, terms, neglected)


def contract_expectation(a: FragmentTensor, b: FragmentTensor) -> Reconstruction:
    """(1/2^K) * sum of A[M]*B[M] over tuples avoiding the tensors' neglected bases."""
    av, bv = _kept_rows(a, b, "expectation")
    return _reconstruction("expectation", (av * bv).sum() / 2 ** a.n_cuts, len(av),
                           a.neglected)


def contract_distribution(a: FragmentTensor, b: FragmentTensor) -> Reconstruction:
    """Per-bitstring contraction; value clamps negatives and renormalizes.

    The result covers concatenated bitstrings, upstream output bits first.
    raw keeps the unclamped quasi-distribution for diagnostics.
    """
    av, bv = _kept_rows(a, b, "distribution")
    return _reconstruction("distribution", (av.T @ bv).reshape(-1) / 2 ** a.n_cuts,
                           len(av), a.neglected)


def contract_operator(a: FragmentTensor, fragment, obs) -> Reconstruction:
    """What contract_distribution or contract_expectation gives on A and
    operator_tensor(fragment, obs).pruned(a.neglected), without building
    that downstream tensor. B[M, x] sums prod_c P_M_c[b_c, b'_c] psi[b, x]
    conj(psi[b', x]) over (b, b'), so the sum over M moves onto A as one cut
    operator per upstream output, R_y = 2^-K sum_M A[M, y] prod_c P_M_c;
    then raw[y, x] = sum_b psi[b, x] (R_y conj(psi))[b, x], weighted over x
    outside distribution mode. Input rows of psi (cut_amplitudes) that are
    not unit-norm, the condition bounding every B[M] by 2^K, raise
    GoldcutError.
    """
    if a.side != "upstream" or fragment.side != "downstream":
        raise WrongSide("contract takes an upstream tensor and a downstream fragment")
    cut_ids = tuple(cid for cid, _ in _cuts(fragment, "downstream"))
    if a.cut_ids != cut_ids:
        raise ArityMismatch("cut interfaces differ: %s vs %s" % (a.cut_ids, cut_ids))
    mode = "distribution" if obs.kind == "distribution" else "expectation"
    if a.mode != mode:
        raise ArityMismatch("contract_operator needs a %s-mode tensor" % mode)
    k = a.n_cuts
    _check_cuts(k)
    readout, weights = _read(obs, fragment.output_qubits)
    psi = cut_amplitudes(fragment, readout)
    if np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0)) > 1e-9:
        raise GoldcutError("downstream cut amplitudes are not unit-norm per input")
    # R_y with axes (y, b, b'): the map leaves each cut's (b, b') pair adjacent
    ops = _map_cuts([OPERATOR_MAPS["downstream"].T] * k, a.entries.reshape(4 ** k, -1))
    ops = ops.reshape((2,) * (2 * k) + (-1,)).transpose(
        [2 * k] + list(range(0, 2 * k, 2)) + list(range(1, 2 * k, 2)))
    ops = ops.reshape(-1, 2 ** k) / 2 ** k
    raw = np.einsum("ybx,bx->yx", (ops @ psi.conj()).reshape((-1,) + psi.shape), psi)
    raw = raw.real.reshape(-1)
    terms = int(_kept(a.cut_ids, _neglected_by_cut(a.cut_ids, a.neglected)).sum())
    return _reconstruction(mode, raw if weights is None else raw @ weights, terms,
                           a.neglected)


def term_count(k_regular: int, k_golden: int):
    """(basis tuples, eigen-terms) for a contraction with the given cut mix.

    Each golden cut keeps 3 of 4 basis entries (metrics.closed_form_counts);
    every tuple expands into 4 signed eigenvalue terms per cut (2 upstream
    outcomes x 2 preparations).
    """
    tuples = closed_form_counts(k_regular, k_golden)[0].basis_tuples
    return tuples, tuples * 4 ** (k_regular + k_golden)
