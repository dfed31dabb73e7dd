"""Per-op correctness checks, run outside the timed region.

Every op is checked three ways:

* Exact ops (shots None) must match the uncut oracle, simulate(uncut(c)),
  within EXACT_TOL on the distribution or the expectation value.
* Every op's variant, shot and basis-tuple counts must equal the counts that
  its own run.neglected implies (for one golden basis per cut these are
  goldcut.metrics.closed_form_counts).
* Shot ops must return a probability vector, and the L2 distance of the
  unclamped quasi-distribution (run.raw_distribution) from the oracle must
  stay within SHOT_Z times its predicted RMS shot noise (see shot_rms).
"""
from __future__ import annotations

import numpy as np

from goldcut import (
    PauliOp,
    bipartition,
    build_tensor,
    detect_exact,
    downstream_variants,
    exact_distribution,
    exact_expectation,
    run_fragment,
    simulate,
    uncut,
    upstream_variants,
)
from goldcut.pipeline import split_observable
from goldcut.reconstructor import BASES
from goldcut.simulator import ObservableSpec

EXACT_TOL = 1e-10
SHOT_Z = 5.0

# Per-cut maps for the shot-noise prediction, basis rows in BASES order
# (I, X, Y, Z). PREP_MAP columns are the downstream preparations
# Zp Zm Xp Xm Yp Ym; SETTING_MAP columns are upstream (setting, outcome bit)
# pairs X0 X1 Y0 Y1 Z0 Z1. The identity row reuses the Z data with both
# signs +1.
PREP_MAP = np.array([
    [1, 1, 0, 0, 0, 0],
    [0, 0, 1, -1, 0, 0],
    [0, 0, 0, 0, 1, -1],
    [1, -1, 0, 0, 0, 0],
], dtype=float)
SETTING_MAP = np.array([
    [0, 0, 0, 0, 1, 1],
    [1, -1, 0, 0, 0, 0],
    [0, 0, 1, -1, 0, 0],
    [0, 0, 0, 0, 1, -1],
], dtype=float)


def implied_counts(cut_ids, neglected, prune: str):
    """(variants, basis tuples) that a run with this neglected set must show.

    Each neglected non-Z basis at a cut drops one upstream setting and two
    downstream preparations there; each neglected basis drops one of the
    four basis entries. Statistical pruning runs every upstream setting.
    """
    per_cut = {cid: set() for cid in cut_ids}
    for cid, p in neglected:
        if cid not in per_cut:
            raise ValueError("neglected set names an unknown cut: %r" % (neglected,))
        per_cut[cid].add(p)
    k = len(per_cut)
    dropped = list(per_cut.values())
    non_z = [len(d - {PauliOp.Z}) for d in dropped]
    up = 3 ** k if prune == "statistical" else int(np.prod([3 - g for g in non_z]))
    down = int(np.prod([6 - 2 * g for g in non_z]))
    tuples = int(np.prod([4 - len(d) for d in dropped]))
    return up + down, tuples


def _mode_product(tensor: np.ndarray, matrix: np.ndarray, k: int) -> np.ndarray:
    """Apply matrix (rows: basis) along each of the first k axes."""
    for axis in range(k):
        tensor = np.moveaxis(np.tensordot(matrix, tensor, axes=([0], [axis])), 0, axis)
    return tensor


def _masked(tensor, neglected):
    entries = tensor.entries.copy()
    for cid, p in neglected:
        idx = [slice(None)] * tensor.n_cuts
        idx[tensor.cut_ids.index(cid)] = BASES.index(p)
        entries[tuple(idx)] = 0.0
    return entries


class CircuitOracle:
    """Uncut truth for one circuit, plus exact fragment tensors when shot
    ops need a noise prediction."""

    def __init__(self, circuit, with_tensors: bool):
        state = simulate(uncut(circuit))
        n = circuit.n_qubits
        self.distribution = exact_distribution(state, range(n))
        self.zstring = exact_expectation(state, ObservableSpec.pauli_string("Z" * n, range(n)))
        self.tensors = None
        self.golden = frozenset()
        if with_tensors:
            f1, f2 = bipartition(circuit)
            obs1, obs2 = split_observable(f1, f2, ObservableSpec.distribution(range(n)))
            a = build_tensor(run_fragment(f1, upstream_variants(f1, obs=obs1)), obs1, "upstream")
            b = build_tensor(run_fragment(f2, downstream_variants(f2, obs=obs2)), obs2,
                             "downstream")
            self.tensors = (a, b)
            self.golden = detect_exact(a).golden_pairs()

    def shot_rms(self, neglected, shots: int) -> float:
        """Predicted RMS L2 error of the raw reconstructed distribution.

        To first order the error is a sum of independent per-variant errors
        dp_v of the empirical distributions, each with E|dp_v|^2 <= 1/shots.
        With raw = 2^-K sum_M A_M (x) B_M:
          downstream part: 4^-K sum_d |g_d|^2 / shots, g = A mode-multiplied
            by PREP_MAP (g_d sums the A_M that preparation d feeds);
          upstream part: 4^-K sum_u max_s |h_us|^2 / shots, h = B
            mode-multiplied by SETTING_MAP (h_us sums the B_M that outcome s
            of setting u feeds).
        The second-order term is O(1/shots) and negligible at 1e4 shots.
        """
        a, b = self.tensors
        k = a.n_cuts
        g = _mode_product(_masked(a, neglected), PREP_MAP, k)
        h = _mode_product(_masked(b, neglected), SETTING_MAP, k)
        var_down = float((g ** 2).sum()) / 4 ** k / shots
        h_sq = (h.reshape(6 ** k, -1) ** 2).sum(axis=1).reshape((3, 2) * k)
        var_up = float(h_sq.max(axis=tuple(range(1, 2 * k, 2))).sum()) / 4 ** k / shots
        return float(np.sqrt(var_up + var_down))


def check_op(op, circuit, oracle: CircuitOracle, run) -> list:
    """Failure messages for one op's RunResult; empty when it passes."""
    fails = []
    try:
        variants, tuples = implied_counts([c.cut_id for c in circuit.cuts], run.neglected,
                                          op.prune)
    except ValueError as exc:
        return [str(exc)]
    if run.cost.variants_executed != variants:
        fails.append("variants_executed %d, neglected set implies %d"
                     % (run.cost.variants_executed, variants))
    if run.cost.basis_tuples_contracted != tuples:
        fails.append("basis_tuples_contracted %d, neglected set implies %d"
                     % (run.cost.basis_tuples_contracted, tuples))
    shots_each = 0 if op.shots is None else op.shots
    if run.cost.shots_total != variants * shots_each:
        fails.append("shots_total %d, expected %d" % (run.cost.shots_total, variants * shots_each))

    if op.observable == "zstring":
        err = abs(run.expectation - oracle.zstring)
        if not err <= EXACT_TOL:
            fails.append("expectation off the oracle by %.3g" % err)
        return fails
    dist = np.asarray(run.distribution, dtype=float)
    if dist.shape != oracle.distribution.shape:
        return fails + ["distribution has shape %s, expected %s"
                        % (dist.shape, oracle.distribution.shape)]
    if op.shots is None:
        err = float(np.abs(dist - oracle.distribution).max())
        if not err <= EXACT_TOL:
            fails.append("distribution off the oracle by %.3g" % err)
        return fails
    if not (np.all(np.isfinite(dist)) and dist.min() >= 0.0 and abs(dist.sum() - 1.0) <= 1e-9):
        fails.append("not a probability vector (min %.3g, sum %.12g)" % (dist.min(), dist.sum()))
    err = float(np.linalg.norm(np.asarray(run.raw_distribution) - oracle.distribution))
    tol = SHOT_Z * oracle.shot_rms(run.neglected, op.shots)
    if not err <= tol:
        fails.append("raw distribution L2 error %.4g exceeds %.4g (%g x predicted RMS)"
                     % (err, tol, SHOT_Z))
    return fails
