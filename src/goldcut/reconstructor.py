"""Build signed fragment tensors and contract them into uncut results.

The upstream tensor A and downstream tensor B are indexed by a Pauli basis
tuple M with one entry per cut. Each cut contributes six data columns:
upstream, the (setting, outcome bit) pairs X0 X1 Y0 Y1 Z0 Z1; downstream,
the eigenstate preparations Zp Zm Xp Xm Yp Ym. One fixed 4x6 map per side
(SIDE_MAPS) takes a cut's columns to its basis rows I, X, Y, Z: a Pauli row
is the signed difference of its two columns, and the identity row adds the
two Z columns with weight +1. A tensor is that map applied along every cut
axis of the variant data (the wire-cut identity of Peng, Harrow, Ozols and
Wu, PRL 125, 150504, 2020). Neglecting a basis zeroes its row, so pruning
is a row mask. The uncut expectation is (1/2^K) * sum over allowed M of
A[M] * B[M], and the uncut distribution applies the same contraction per
output bitstring pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circuits import PauliOp
from .errors import ArityMismatch, GoldcutError, MissingVariant, WrongSide
from .fragmenter import SIDE_LABELS, _normalize_neglected
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


def _output_weights(obs, rest_locals):
    """Per-bitstring observable values over the non-cut bits, or None when
    the tensor is distribution mode."""
    m = len(rest_locals)
    size = 2 ** m
    if obs.kind == "distribution":
        return None
    idx = np.arange(size)
    if obs.kind == "projector":
        w = np.ones(size)
        for q, bit in zip(obs.qubits, obs.bits):
            pos = rest_locals.index(q)
            have = (idx >> (m - 1 - pos)) & 1
            w *= (have == int(bit)).astype(float)
        return w
    if obs.kind == "pauli":
        w = np.ones(size)
        for q, p in zip(obs.qubits, obs.paulis):
            if p is PauliOp.I:
                continue
            pos = rest_locals.index(q)
            have = (idx >> (m - 1 - pos)) & 1
            w *= 1.0 - 2.0 * have
        return w
    raise ValueError("unsupported observable kind %r" % obs.kind)


def build_tensor(results, obs, side, neglected=frozenset()) -> FragmentTensor:
    """Assemble the signed tensor for one side from its variant results.

    Each result supplies data columns per cut (see SIDE_MAPS), and the
    tensor is the side's 4x6 map applied along every cut axis. neglected
    lists the (cut_id, basis) pairs being pruned; their rows of the map are
    zeroed, so those entries stay zero (for a neglected Z as well, although
    the Z-setting data still feeds the identity row). Only the variants a
    kept basis reads must be present; for a repeated key the last result
    counts.
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
    neglected = _normalize_neglected(neglected)

    cut_ids = tuple(sorted(cid for cid, _ in results[0].key.assignment))
    k = len(cut_ids)
    if k > MAX_CUTS:
        raise GoldcutError("tensor capped at %d cuts, got %d" % (MAX_CUTS, k))
    labels, per_label, side_map = SIDE_MAPS[side]
    measured = cut_ids if side == "upstream" else ()
    dist = obs.kind == "distribution"

    # Data per result: its probabilities with the measured cut bits first
    # (cut_id order) and the output bits after them, one axis per cut bit.
    n = results[0].n_bits
    pos = dict(results[0].cut_bits)
    cut_axes = [pos[cid] for cid in measured]
    out_bits = tuple(q for q in range(n) if q not in cut_axes)
    order = cut_axes + list(out_bits)
    weights = _output_weights(obs, list(out_bits))
    tail = (2 ** len(out_bits),) if dist else ()
    index = {lab: i for i, lab in enumerate(labels)}
    table = {}
    for r in results:
        data = r.probs.reshape((2,) * n).transpose(order).reshape(per_label ** k, -1)
        if not dist:
            data = data @ weights
        table[tuple(index[r.key.label(cid)] for cid in cut_ids)] = (
            data.reshape((per_label,) * k + tail))

    maps = [side_map * np.array([[(cid, p) not in neglected] for p in BASES])
            for cid in cut_ids]
    read = [m.reshape(4, len(labels), per_label).any(axis=(0, 2)) for m in maps]
    need = reduce(np.multiply.outer, read[1:], read[0])
    missing = set(zip(*np.nonzero(need))) - table.keys()
    if missing:
        raise MissingVariant("missing %s variant %s"
                             % (side, tuple(labels[i] for i in min(missing))))

    # Mode products one column of the first cut at a time, so that only a
    # 6^(K-1) block of data is held, never all 6^K columns at once. The
    # block has label axes, then outcome-bit axes, for cuts 2..K; "pairs"
    # puts each cut's two side by side, which orders its columns as the map.
    by_first = [[] for _ in labels]
    for key, data in table.items():
        if need[key]:
            by_first[key[0]].append((key[1:], data))
    pairs = [a for j in range(k - 1) for a in (j, k - 1 + j)]
    pairs += range(2 * k - 2, 2 * k - 2 + len(tail))
    entries = np.zeros((4, 4 ** (k - 1) * int(np.prod(tail))))
    for col in np.flatnonzero(maps[0].any(axis=0)):
        first, bit = divmod(col, per_label)
        block = np.zeros((len(labels),) * (k - 1) + (per_label,) * (k - 1) + tail)
        for rest, data in by_first[first]:
            block[rest] = data[bit]
        block = block.transpose(pairs)
        for j, m in enumerate(maps[1:]):
            block = np.matmul(m, block.reshape(4 ** j, 6, -1))
        for basis in np.flatnonzero(maps[0][:, col]):
            entries[basis] += maps[0][basis, col] * block.reshape(-1)
    entries = entries.reshape((4,) * k + tail)
    tensor = FragmentTensor(side, cut_ids, "distribution" if dist else "expectation",
                            entries, source, neglected,
                            out_bits if dist else ())

    if source == "exact" and not dist and obs.kind == "projector":
        bound = 2.0 ** k + 1e-9
        if not np.all(np.abs(tensor.entries) <= bound):
            raise GoldcutError("projector tensor entry exceeds the bound 2^K = %g" % 2.0 ** k)
    return tensor


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
    shots_used: int = 0


def _allowed_mask(cut_ids, neglected):
    k = len(cut_ids)
    mask = np.ones((4,) * k, dtype=bool)
    for cid, p in neglected:
        axis = cut_ids.index(cid)
        idx = [slice(None)] * k
        idx[axis] = _BASE_INDEX[p]
        mask[tuple(idx)] = False
    return mask


def _check_pair(a: FragmentTensor, b: FragmentTensor):
    if a.side != "upstream" or b.side != "downstream":
        raise WrongSide("contract takes (upstream, downstream) tensors")
    if a.cut_ids != b.cut_ids:
        raise ArityMismatch("cut interfaces differ: %s vs %s" % (a.cut_ids, b.cut_ids))
    if a.neglected != b.neglected:
        raise ArityMismatch("tensors were built with different neglected sets")
    return a.neglected


def contract_expectation(a: FragmentTensor, b: FragmentTensor) -> Reconstruction:
    """(1/2^K) * sum of A[M]*B[M] over tuples avoiding the tensors' neglected bases."""
    neglected = _check_pair(a, b)
    if a.mode != "expectation" or b.mode != "expectation":
        raise ArityMismatch("contract_expectation needs expectation-mode tensors")
    mask = _allowed_mask(a.cut_ids, neglected)
    value = float((a.entries * b.entries)[mask].sum() / 2 ** a.n_cuts)
    return Reconstruction("expectation", value, value, int(mask.sum()), neglected)


def contract_distribution(a: FragmentTensor, b: FragmentTensor) -> Reconstruction:
    """Per-bitstring contraction; value clamps negatives and renormalizes.

    The result covers concatenated bitstrings, upstream output bits first.
    raw keeps the unclamped quasi-distribution for diagnostics.
    """
    neglected = _check_pair(a, b)
    if a.mode != "distribution" or b.mode != "distribution":
        raise ArityMismatch("contract_distribution needs distribution-mode tensors")
    k = a.n_cuts
    mask = _allowed_mask(a.cut_ids, neglected).reshape(-1)
    av = a.entries.reshape(4 ** k, -1)[mask]
    bv = b.entries.reshape(4 ** k, -1)[mask]
    raw = (av.T @ bv).reshape(-1) / 2 ** k
    clamped = np.clip(raw, 0.0, None)
    total = clamped.sum()
    value = clamped / total if total > 0 else clamped
    return Reconstruction("distribution", value, raw, int(mask.sum()), neglected)


def term_count(k_regular: int, k_golden: int):
    """(basis tuples, eigen-terms) for a contraction with the given cut mix.

    Each golden cut keeps 3 of 4 basis entries (metrics.closed_form_counts);
    every tuple expands into 4 signed eigenvalue terms per cut (2 upstream
    outcomes x 2 preparations).
    """
    tuples = closed_form_counts(k_regular, k_golden)[0].basis_tuples
    return tuples, tuples * 4 ** (k_regular + k_golden)
