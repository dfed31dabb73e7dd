"""Golden cutting point detection.

A (cut, basis) pair is golden when every signed tensor entry that fixes
that basis at that cut vanishes, for all basis assignments at the other
cuts and, in distribution mode, for every output bitstring. Such a basis
can be dropped from the contraction and from the downstream preparation
set without changing the reconstruction.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .circuits import PauliOp, format_float
from .errors import MissingVariant, WrongSide
from .fragmenter import MEASURED_BASES
from .reconstructor import _BASE_INDEX, FragmentTensor, build_tensor

DEFAULT_ALPHA = 0.05
DEFAULT_TAU = 0.02
GENERATION_EPS = 1e-8
ORACLE_EPS = 1e-12


@dataclass
class GoldenEntry:
    """Decision record for one (cut, basis) pair.

    magnitude is the largest signed-sum magnitude over all assignments of
    the other cuts (and output bitstrings in distribution mode). radius and
    shots are only set by the statistical detector; insufficient marks a
    radius too wide to ever flag at the requested threshold.
    """

    cut_id: int
    basis: str
    magnitude: float
    golden: bool
    radius: float | None = None
    shots: int | None = None
    insufficient: bool = False


@dataclass
class GoldenReport:
    entries: list

    def entry(self, cut_id: int, basis) -> GoldenEntry:
        label = basis.value if isinstance(basis, PauliOp) else str(basis)
        for e in self.entries:
            if e.cut_id == cut_id and e.basis == label:
                return e
        raise KeyError((cut_id, label))

    def golden_pairs(self):
        """The flagged (cut_id, PauliOp) pairs, ready to use as a neglected set."""
        return frozenset(
            (e.cut_id, PauliOp(e.basis)) for e in self.entries if e.golden
        )

    def to_json(self) -> str:
        rows = []
        for e in self.entries:
            parts = [
                '"cut": %d' % e.cut_id,
                '"basis": %s' % json.dumps(e.basis),
                '"magnitude": %s' % format_float(e.magnitude),
                '"golden": %s' % ("true" if e.golden else "false"),
            ]
            if e.radius is not None:
                parts.append('"radius": %s' % format_float(e.radius))
            if e.shots is not None:
                parts.append('"shots": %d' % e.shots)
            rows.append("{%s}" % ", ".join(parts))
        return "[%s]" % ", ".join(rows)


def _basis_magnitudes(tensor: FragmentTensor):
    """(cut_id, basis, max |entry|) in (cut id, X, Y, Z) order, the max
    taken over the other cuts and any output axis."""
    k = tensor.n_cuts
    mags = np.abs(tensor.entries).reshape((4,) * k + (-1,))
    out = []
    for axis, cid in enumerate(tensor.cut_ids):
        per_basis = mags.max(axis=tuple(a for a in range(k + 1) if a != axis)).tolist()
        out += [(cid, p, per_basis[_BASE_INDEX[p]]) for p in MEASURED_BASES]
    return out


def check_eps(eps: float) -> None:
    """Raise ValueError unless eps is a finite magnitude bound of at least 0."""
    if not 0.0 <= eps < math.inf:
        raise ValueError("eps must be finite and at least 0, got %r" % eps)


def detect_exact(tensor: FragmentTensor, eps: float = ORACLE_EPS) -> GoldenReport:
    """Flag the bases whose magnitude is at most eps in an infinite-shot upstream tensor."""
    check_eps(eps)
    if tensor.side != "upstream":
        raise WrongSide("golden detection inspects the upstream tensor")
    if tensor.source != "exact":
        raise ValueError("detect_exact needs an exact-mode tensor; "
                         "use detect_statistical for shot data")
    return GoldenReport([GoldenEntry(cid, p.value, mag, mag <= eps)
                         for cid, p, mag in _basis_magnitudes(tensor)])


def check_alpha_tau(alpha: float, tau: float = DEFAULT_TAU) -> None:
    """Raise ValueError unless alpha lies in (0, 1) and tau is finite and above 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1), got %r" % (alpha,))
    if not 0.0 < tau < math.inf:
        raise ValueError("tau must be finite and above 0, got %r" % (tau,))


def hoeffding_radius(shots: int, alpha: float) -> float:
    """Two-sided (1 - alpha) deviation bound for a mean of [-1, 1] terms;
    shots below 1 or alpha outside (0, 1) raise ValueError."""
    if shots < 1:
        raise ValueError("need shots >= 1, got %r" % (shots,))
    check_alpha_tau(alpha)
    return math.sqrt(math.log(2.0 / alpha) / shots)


def detect_statistical(results, obs, alpha: float = DEFAULT_ALPHA,
                       tau: float = DEFAULT_TAU, *, tensor=None) -> GoldenReport:
    """Flag golden bases from finite-shot upstream results.

    For each (cut, basis) the empirical signed sum is compared against a
    Hoeffding confidence radius from the variant shot counts: the pair is
    flagged when the radius is at most tau and the confidence interval
    contains zero (empirical magnitude within the radius). When the radius
    exceeds tau the data cannot support a decision and the entry is marked
    insufficient instead of raising. An alpha or tau that check_alpha_tau
    rejects and a result with fewer than 1 shot raise ValueError, and no
    results raises MissingVariant. tensor, if given, is build_tensor(results,
    obs, "upstream") already built by the caller.
    """
    check_alpha_tau(alpha, tau)
    if not results:
        raise MissingVariant("no variant results")
    for r in results:
        if r.shots < 1:
            raise ValueError("detect_statistical needs shot-mode results")
    tensor = build_tensor(results, obs, "upstream") if tensor is None else tensor
    least = min(r.shots for r in results)
    radius = hoeffding_radius(least, alpha)
    insufficient = radius > tau
    return GoldenReport([GoldenEntry(cid, p.value, mag, (not insufficient) and mag <= radius,
                                     radius, least, insufficient)
                         for cid, p, mag in _basis_magnitudes(tensor)])
