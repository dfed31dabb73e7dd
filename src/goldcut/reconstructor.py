"""Build signed fragment tensors and contract them into uncut results.

The upstream tensor A and downstream tensor B are indexed by a Pauli basis
tuple M with one entry per cut. Every tensor is made the same way: data
with one axis per cut, a fixed per-cut map applied along each of those
axes by fragmenter._map_cuts, the helper that also maps every variant's
amplitudes in run_fragment (the wire-cut identity of Peng, Harrow, Ozols
and Wu, PRL 125, 150504, 2020), then FragmentTensor.pruned, the only code
that zeroes the rows of neglected bases. build_tensor reads the results of
kept labels only, exact or sampled: six data columns per cut, upstream the
(setting, outcome bit) pairs X0 X1 Y0 Y1 Z0 Z1, downstream the preparations
Zp Zm Xp Xm Yp Ym, which a 4x6 map per side (SIDE_MAPS) takes to the basis
rows I, X, Y, Z. A Pauli row is the signed difference of its two columns,
and the identity row adds the two Z columns. operator_tensor reads the
exact cut operator instead: the four pairs (b, b') of computational bits
per cut, 4^K data instead of 6^K variants, mapped by OPERATOR_MAPS. A
neglected set is checked by fragmenter's rule where it is first read only.
The uncut expectation is (1/2^K) * sum over M of A[M] * B[M], and the
uncut distribution the same sum per output bitstring pair; contract_tensors
reads which from the tensors' mode and contracts every tuple, a neglected
one adding nothing through its zero rows. contract_operator gives the exact
result without building B: the sum over M moves onto A, which the
transposed downstream OPERATOR_MAPS take to one cut operator per upstream
output, met by the downstream psi in one complex product and one real
reduction.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from math import prod

import numpy as np

from .circuits import PauliOp
from .errors import ArityMismatch, GoldcutError, MissingVariant, WrongSide
from .fragmenter import SIDE_LABELS, _check_cuts, _checked, _cuts, _key_index, _kept_labels
from .fragmenter import _map_cuts, _read, cut_amplitudes
from .metrics import closed_form_counts
from .simulator import _width

BASES = (PauliOp.I, PauliOp.X, PauliOp.Y, PauliOp.Z)
_BASE_INDEX = {p: i for i, p in enumerate(BASES)}

# Per side: the 4x6 map from a cut's data columns, label-major in
# fragmenter.SIDE_LABELS order with one column per outcome bit of the cut
# wire (two upstream, one downstream), to the basis rows I, X, Y, Z.
SIDE_MAPS = {
    "upstream": np.array([
        [0, 0, 0, 0, 1, 1],
        [1, -1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 0],
        [0, 0, 0, 0, 1, -1],
    ], dtype=float),
    "downstream": np.array([
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, -1, 0, 0],
        [0, 0, 0, 0, 1, -1],
        [1, -1, 0, 0, 0, 0],
    ], dtype=float),
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
        neglected = _checked(self.cut_ids, neglected)
        if not self.neglected <= neglected:
            raise ValueError("cannot restore neglected bases %s"
                             % sorted((c, p.value) for c, p in self.neglected - neglected))
        if neglected == self.neglected:
            return self
        entries = self.entries.copy()
        for cid, p in neglected:  # +0.0 in the row, whatever it held
            entries[(slice(None),) * self.cut_ids.index(cid) + (_BASE_INDEX[p],)] = 0.0
        return FragmentTensor(self.side, self.cut_ids, self.mode, entries, self.source,
                              neglected, self.output_bits)


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

    Each result supplies data columns per cut (see SIDE_MAPS). Only the
    results of the labels that upstream_variants / downstream_variants keep
    for neglected are read, and a missing one raises MissingVariant; the
    tensor is the kept columns of the side's 4x6 map applied along every cut
    axis, then pruned of the (cut_id, basis) pairs in neglected. Results of
    other labels are checked but never read, so not even a NaN in them
    reaches the tensor. The order of the results does not matter, except
    that for a repeated key the last counts. A result of the other side
    raises WrongSide; a key that breaks run_fragment's rule (_key_index) for
    the cuts of the first result's cut_bits (upstream) or of most keys
    (downstream, the first such in a tie), a readout other than obs needs
    (its X/Y factors, in obs order), or cut_bits or a count of 2^n
    probabilities other than the first result's raise ValueError.
    The output bits are the local bits other than the cut bits, in order.
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

    first = results[0]
    n = _width(first.probs)
    # downstream results carry no cut bits: there, the cut ids most keys have
    cut_ids = (tuple(cid for cid, _ in first.cut_bits) if side == "upstream" else Counter(
        tuple(cid for cid, _ in r.key.assignment) for r in results).most_common(1)[0][0])
    k = len(cut_ids)
    _check_cuts(k)
    neglected = _checked(cut_ids, neglected)
    labels, side_map = SIDE_LABELS[side], SIDE_MAPS[side]
    per_label = side_map.shape[1] // len(labels)
    dist = obs.kind == "distribution"

    # Data per result: its probabilities with the measured cut bits first
    # (cut_id order) and the output bits after them, one axis per cut bit.
    cut_axes = [q for _, q in first.cut_bits]
    out_bits = tuple(q for q in range(n) if q not in cut_axes)
    if len(out_bits) + len(cut_axes) != n:
        raise ValueError("cut bits %s are not distinct bits of %d" % (first.cut_bits, n))
    readout, weights = _read(obs, out_bits)
    found = {}  # label indices -> probabilities of the last result with that key
    for r in results:
        found[tuple(_key_index(r.key, side, cut_ids))] = r.probs
        if (r.cut_bits, np.size(r.probs)) != (first.cut_bits, 2 ** n):
            raise ValueError("result cut bits and length %s differ from the first result's %s"
                             % ((r.cut_bits, np.size(r.probs)), (first.cut_bits, 2 ** n)))
        if r.key.readout != readout:
            raise ValueError("variant read out as %s, the observable needs %s"
                             % (r.key.readout, readout))

    # Beyond K = 2 a block fixes the first cut's label, so at most 6^(K-1)
    # columns are held, not 6^K; its axes are each free cut's (label,
    # outcome bit) over the kept labels, the fixed cut's bits and the tail.
    kept = [[labels.index(lab) for lab in _kept_labels(side, {p for c, p in neglected if c == cid})]
            for cid in cut_ids]
    fixed = int(k > 2)
    by_label = side_map.reshape(4, len(labels), per_label)
    view = [a for j in range(k - fixed) for a in (j, k + j)] + [*range(k - fixed, k), -1]

    def block(head):
        try:
            data = np.array([found[head + t] for t in itertools.product(*kept[fixed:])])
        except KeyError as missing:
            raise MissingVariant("missing %s variant %s"
                                 % (side, tuple(labels[j] for j in missing.args[0]))) from None
        data = data.reshape((-1,) + (2,) * n).transpose(
            [0, *(1 + q for q in cut_axes + list(out_bits))]).reshape(
            [len(js) for js in kept[fixed:]] + [per_label] * k + [-1])
        return (data if dist else (data @ weights)[..., None]).transpose(view)

    maps = [by_label[:, js].reshape(4, -1) for js in kept[fixed:]]
    entries = np.zeros((4 ** k, 2 ** len(out_bits) if dist else 1))
    for head in itertools.product(*kept[:fixed]):
        # block(head)'s one reference is _map_cuts', which frees it after the first map
        entries += _map_cuts(maps + [by_label[:, j] for j in head], block(head))
    # _map_cuts leaves the fixed cut's rows last; the tensor has them first
    entries = entries.reshape(4 ** (k - fixed), 4 ** fixed, -1).transpose(1, 0, 2)
    return _tensor(side, cut_ids, obs, entries, source, out_bits).pruned(neglected)


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
    of Pauli strings can be assembled from per-string tensors. No tensors
    raise ValueError; tensors that differ in side, cut ids, mode, neglected
    set or output bits, or in count from coeffs, raise ArityMismatch.
    """
    if not tensors:
        raise ValueError("combine_tensors needs at least one tensor")
    if len(coeffs) != len(tensors):
        raise ArityMismatch("%d coefficients for %d tensors" % (len(coeffs), len(tensors)))
    first = tensors[0]
    for t in tensors[1:]:
        if (t.side, t.cut_ids, t.mode, t.neglected, t.output_bits) != (
            first.side, first.cut_ids, first.mode, first.neglected, first.output_bits
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


def _check_pair(a: FragmentTensor, side, cut_ids, mode):
    """Raise unless a is an upstream tensor that contracts with a downstream
    side of these cut ids and this mode."""
    if a.side != "upstream" or side != "downstream":
        raise WrongSide("contract takes an upstream tensor and a downstream side")
    if a.cut_ids != cut_ids:
        raise ArityMismatch("cut interfaces differ: %s vs %s" % (a.cut_ids, cut_ids))
    if a.mode != mode:
        raise ArityMismatch("contract needs a %s-mode upstream tensor, not %s" % (mode, a.mode))


def _reconstruction(raw, a: FragmentTensor) -> Reconstruction:
    """The Reconstruction of raw, contracted from the upstream tensor a,
    which gives its mode, neglected set and kept-tuple count (per cut, the
    bases not neglected there). A distribution's value clamps negatives and
    renormalizes; raw keeps the unclamped quasi-distribution for diagnostics."""
    terms = prod(4 - sum(c == cid for c, _ in a.neglected) for cid in a.cut_ids)
    if a.mode == "expectation":
        value = raw.item()
        return Reconstruction(a.mode, value, value, terms, a.neglected)
    clamped = np.maximum(raw, 0.0)
    total = np.add.reduce(clamped)
    value = clamped / total if total > 0 else clamped
    return Reconstruction(a.mode, value, raw, terms, a.neglected)


def contract_tensors(a: FragmentTensor, b: FragmentTensor) -> Reconstruction:
    """(1/2^K) * sum of A[M]*B[M] over every basis tuple M, in the tensors'
    mode: one value, or one entry per pair of output bitstrings, upstream
    bits first. A tuple that touches the tensors' neglected bases adds
    nothing, since pruned wrote +0.0 in its rows."""
    _check_pair(a, b.side, b.cut_ids, b.mode)
    if a.neglected != b.neglected:
        raise ArityMismatch("tensors were built with different neglected sets")
    av, bv = (t.entries.reshape(4 ** a.n_cuts, -1) for t in (a, b))
    return _reconstruction((av.T @ bv).reshape(-1) / 2 ** a.n_cuts, a)


def contract_operator(a: FragmentTensor, fragment, obs) -> Reconstruction:
    """What contract_tensors gives on A and operator_tensor(fragment,
    obs).pruned(a.neglected), without building that downstream tensor.
    B[M, x] sums prod_c P_M_c[b_c, b'_c] psi[b, x] conj(psi[b', x]) over
    (b, b'), so the sum over M moves onto A as one cut operator per
    upstream output, R_y = 2^-K sum_M A[M, y] prod_c P_M_c. One complex
    product of psi[x, b], the pass's own layout, with R laid out as
    (b, (y, b')) gives T[x, y, b'] = (psi R_y)[x, b'], and raw[y, x] =
    Re sum_b' T[x, y, b'] conj(psi[x, b']) is one real reduction over the
    (re, im) views, weighted over x outside distribution mode. An input
    whose squared norm is outside [(1 - 1e-9)^2, (1 + 1e-9)^2], NaN
    included, raises GoldcutError; unit norm bounds every B[M] by 2^K.
    """
    # the cuts of the fragment's own side, so that an upstream one raises WrongSide
    _check_pair(a, fragment.side, tuple(cid for cid, _ in _cuts(fragment, fragment.side)),
                "distribution" if obs.kind == "distribution" else "expectation")
    k = a.n_cuts
    readout, weights = _read(obs, fragment.output_qubits)
    # psi[x, b] in the pass's own layout, and its (re, im) view psi_r[x, 2b + part]
    psi = np.ascontiguousarray(cut_amplitudes(fragment, readout).T)
    psi_r = psi.view(float)
    sq = np.einsum("xj,xj->j", psi_r, psi_r).tolist()
    if not all((1 - 1e-9) ** 2 <= re + im <= (1 + 1e-9) ** 2 for re, im in zip(sq[::2], sq[1::2])):
        raise GoldcutError("downstream cut amplitudes are not unit-norm per input")
    # R with axes (b, y, b'), its 2^-K a half in each cut's map (exact): the
    # map leaves each cut's (b, b') pair adjacent
    ops = _map_cuts([OPERATOR_MAPS["downstream"].T / 2] * k, a.entries)
    ops = ops.reshape((2,) * (2 * k) + (-1,)).transpose(
        [*range(0, 2 * k, 2), 2 * k, *range(1, 2 * k, 2)]).reshape(2 ** k, -1)
    t_r = (psi @ ops).view(float).reshape(psi.shape[0], -1, psi_r.shape[1])
    raw = np.einsum("xyj,xj->yx", t_r, psi_r).reshape(-1)
    return _reconstruction(raw if weights is None else raw @ weights, a)


def term_count(k_regular: int, k_golden: int):
    """(basis tuples, eigen-terms) for a contraction with the given cut mix.

    Each golden cut keeps 3 of 4 basis entries (metrics.closed_form_counts);
    every tuple expands into 4 signed eigenvalue terms per cut (2 upstream
    outcomes x 2 preparations).
    """
    tuples = closed_form_counts(k_regular, k_golden)[0].basis_tuples
    return tuples, tuples * 4 ** (k_regular + k_golden)
