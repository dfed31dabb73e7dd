"""Build signed fragment tensors and contract them into uncut results.

The upstream tensor A and downstream tensor B are indexed by a Pauli basis
tuple M with one entry per cut. A[M] folds the signed sum over measurement
outcomes, B[M] the signed sum over eigenstate preparations; identity entries
take both terms with weight +1 from the Z-setting data. The uncut
expectation is (1/2^K) * sum over allowed M of A[M] * B[M], and the uncut
distribution applies the same contraction per output bitstring pair.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .circuits import PauliOp, _fmt
from .errors import ArityMismatch, GoldcutError, MissingVariant, WrongSide
from .fragmenter import PREP_TERMS, VariantKey

BASES = (PauliOp.I, PauliOp.X, PauliOp.Y, PauliOp.Z)
_BASE_INDEX = {p: i for i, p in enumerate(BASES)}
MAX_CUTS = 8


def _normalize_neglected(neglected):
    out = set()
    for cid, p in neglected or ():
        out.add((int(cid), p if isinstance(p, PauliOp) else PauliOp(p)))
    return frozenset(out)


@dataclass
class FragmentTensor:
    """Dense signed tensor over basis tuples for one fragment.

    entries has shape (4,)*K in expectation mode and (4,)*K + (D,) in
    distribution mode, with axis order following sorted cut_ids and basis
    order I, X, Y, Z. Entries whose tuple touches a neglected (cut, basis)
    pair are never filled and stay zero.
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


def _sign_weights(k):
    """Signed outcome weights over the joint cut-bit index, first cut most
    significant, keyed by which of the K cuts carry the identity: identity
    contributes (+1, +1), every other basis (+1, -1)."""
    factor = {True: np.array([1.0, 1.0]), False: np.array([1.0, -1.0])}
    return {
        pattern: reduce(np.kron, [factor[is_i] for is_i in pattern], np.array([1.0]))
        for pattern in itertools.product((True, False), repeat=k)
    }


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


def _conditioned(result, cut_ids):
    """Probability tensor reshaped to (2**K, 2**rest): joint cut-bit index
    first (cut_id order), remaining local bits ascending."""
    p = result.probabilities().reshape((2,) * result.n_bits)
    pos = dict(result.cut_bits)
    cut_axes = [pos[cid] for cid in cut_ids]
    rest = [q for q in range(result.n_bits) if q not in set(cut_axes)]
    moved = np.transpose(p, cut_axes + rest)
    return moved.reshape(2 ** len(cut_axes), -1), tuple(rest)


def build_tensor(results, obs, side, neglected=frozenset()) -> FragmentTensor:
    """Assemble the signed tensor for one side from its variant results.

    neglected lists the (cut_id, basis) pairs being pruned; their tuples are
    left out (and, for a neglected Z, the Z-signed entry is zeroed even
    though the Z-setting data exists for the identity term).
    """
    if not results:
        raise MissingVariant("no variant results")
    for r in results:
        if r.key.side != side:
            raise WrongSide("expected %s results, got %s" % (side, r.key.side))
    modes = {r.mode for r in results}
    if len(modes) != 1:
        raise ValueError("mixed exact and shot results")
    source = "exact" if modes == {"exact"} else "shots"
    neglected = _normalize_neglected(neglected)

    if side == "upstream":
        cut_ids = tuple(sorted(cid for cid, _ in results[0].cut_bits))
    else:
        cut_ids = tuple(sorted(cid for cid, _ in results[0].key.assignment))
    k = len(cut_ids)
    if k > MAX_CUTS:
        raise GoldcutError("tensor capped at %d cuts, got %d" % (MAX_CUTS, k))

    dist = obs.kind == "distribution"
    allowed = [
        [p for p in BASES if (cid, p) not in neglected]
        for cid in cut_ids
    ]

    if side == "upstream":
        table = {}
        out_bits = None
        weights = None
        for r in results:
            mat, rest = _conditioned(r, cut_ids)
            if out_bits is None:
                out_bits = rest
                weights = _output_weights(obs, list(rest))
            setting = tuple(r.key.label(cid) for cid in cut_ids)
            table[setting] = mat if dist else mat @ weights
        shape = (4,) * k + ((2 ** len(out_bits),) if dist else ())
        entries = np.zeros(shape)
        signs = _sign_weights(k)
        for combo in itertools.product(*allowed):
            setting = tuple("Z" if p is PauliOp.I else p.value for p in combo)
            if setting not in table:
                raise MissingVariant("missing upstream setting %s" % (setting,))
            w = signs[tuple(p is PauliOp.I for p in combo)]
            idx = tuple(_BASE_INDEX[p] for p in combo)
            entries[idx] = w @ table[setting]
        tensor = FragmentTensor(side, cut_ids, "distribution" if dist else "expectation",
                                entries, source, neglected,
                                out_bits if dist else ())
    else:
        table = {}
        out_bits = None
        for r in results:
            p = r.probabilities()
            if out_bits is None:
                out_bits = tuple(range(r.n_bits))
                weights = _output_weights(obs, list(out_bits))
            label_tuple = tuple(r.key.label(cid) for cid in cut_ids)
            table[label_tuple] = p if dist else float(p @ weights)
        shape = (4,) * k + ((2 ** len(out_bits),) if dist else ())
        entries = np.zeros(shape)
        for combo in itertools.product(*allowed):
            total = np.zeros(shape[k:]) if dist else 0.0
            for parts in itertools.product(*(PREP_TERMS[p] for p in combo)):
                labels = tuple(lab for lab, _ in parts)
                if labels not in table:
                    raise MissingVariant("missing downstream preparation %s" % (labels,))
                weight = 1.0
                for _, w in parts:
                    weight *= w
                total = total + weight * table[labels]
            idx = tuple(_BASE_INDEX[p] for p in combo)
            entries[idx] = total
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


def _check_pair(a: FragmentTensor, b: FragmentTensor, neglected):
    if a.side != "upstream" or b.side != "downstream":
        raise WrongSide("contract takes (upstream, downstream) tensors")
    if a.cut_ids != b.cut_ids:
        raise ArityMismatch("cut interfaces differ: %s vs %s" % (a.cut_ids, b.cut_ids))
    neglected = _normalize_neglected(neglected)
    if a.neglected != neglected or b.neglected != neglected:
        raise ArityMismatch("tensors were built with a different neglected set")
    return neglected


def contract_expectation(a: FragmentTensor, b: FragmentTensor,
                         neglected=frozenset()) -> Reconstruction:
    """(1/2^K) * sum of A[M]*B[M] over tuples avoiding neglected bases."""
    neglected = _check_pair(a, b, neglected)
    if a.mode != "expectation" or b.mode != "expectation":
        raise ArityMismatch("contract_expectation needs expectation-mode tensors")
    mask = _allowed_mask(a.cut_ids, neglected)
    value = float((a.entries * b.entries)[mask].sum() / 2 ** a.n_cuts)
    return Reconstruction("expectation", value, value, int(mask.sum()), neglected)


def contract_distribution(a: FragmentTensor, b: FragmentTensor,
                          neglected=frozenset()) -> Reconstruction:
    """Per-bitstring contraction; value clamps negatives and renormalizes.

    The result covers concatenated bitstrings, upstream output bits first.
    raw keeps the unclamped quasi-distribution for diagnostics.
    """
    neglected = _check_pair(a, b, neglected)
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

    Each golden cut keeps 3 of 4 basis entries; every tuple expands into 4
    signed eigenvalue terms per cut (2 upstream outcomes x 2 preparations).
    """
    if k_regular < 0 or k_golden < 0:
        raise ValueError("cut counts must be non-negative")
    tuples = 4 ** k_regular * 3 ** k_golden
    return tuples, tuples * 4 ** (k_regular + k_golden)


def reconstruction_to_json(rec: Reconstruction) -> str:
    neglect = ", ".join(
        '[%d, "%s"]' % (cid, p.value)
        for cid, p in sorted(rec.neglected, key=lambda t: (t[0], t[1].value))
    )
    if rec.mode == "expectation":
        head = '"value": %s, "raw": %s' % (_fmt(rec.value), _fmt(rec.raw))
    else:
        head = '"distribution": [%s], "raw": [%s]' % (
            ", ".join(_fmt(v) for v in rec.value),
            ", ".join(_fmt(v) for v in rec.raw),
        )
    return ('{%s, "terms_evaluated": %d, "neglected": [%s], "shots_used": %d}'
            % (head, rec.terms_evaluated, neglect, rec.shots_used))
