"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every criterion is checked at its pinned tolerance against an oracle that
does not share code with the path under test (dense uncut simulation,
closed-form counts, or direct enumeration).
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from goldcut.circuits import (
    Circuit,
    CutPoint,
    PauliOp,
    bipartition,
    cnot,
    golden_ansatz,
    h,
    ry,
    uncut,
)
from goldcut.cli import main
from goldcut.fragmenter import run_fragment, upstream_variants
from goldcut.golden import detect_exact, detect_statistical
from goldcut.metrics import closed_form_counts, weighted_distance
from goldcut.pipeline import (
    ground_truth_distribution,
    reconstruct,
)
from goldcut.reconstructor import build_tensor, combine_tensors, term_count
from goldcut.simulator import ObservableSpec, exact_expectation, simulate

from conftest import make_cut_circuit


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print("\ncriterion %d %s: %s" % (number, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d: %s" % (number, detail)


def test_criterion_1_oracle_equivalence(capsys):
    """200 random cut circuits, 3-8 qubits, K in {1, 2}: exact-mode
    reconstruction matches the uncut simulation to 1e-10 for both a random
    Pauli expectation and the full distribution."""
    worst = 0.0
    built = 0
    attempt = 0
    while built < 200:
        rng = np.random.default_rng(5000 + attempt)
        attempt += 1
        k = int(rng.integers(1, 3))
        n_up = int(rng.integers(k, 5))
        n_down = int(rng.integers(k, 5))
        if not 3 <= n_up + n_down - k <= 8:
            continue
        circ = make_cut_circuit(n_up, n_down, k, 2, 5000 + attempt)
        run = reconstruct(circ)
        err = float(np.max(np.abs(run.raw_distribution
                                  - ground_truth_distribution(circ))))
        paulis = [PauliOp(str(rng.choice(["I", "X", "Y", "Z"])))
                  for _ in range(circ.n_qubits)]
        obs = ObservableSpec.pauli_string(paulis, range(circ.n_qubits))
        run_e = reconstruct(circ, obs=obs)
        err = max(err, abs(run_e.expectation - exact_expectation(simulate(uncut(circ)), obs)))
        worst = max(worst, err)
        built += 1
    _report(capsys, 1, worst <= 1e-10,
            "oracle equivalence over 200 circuits, max error %.3g (tol 1e-10)"
            % worst)


def test_criterion_2_golden_pruning_exactness(capsys):
    """50 golden-ansatz circuits: pruning the detected golden basis leaves
    the exact reconstruction unchanged to 1e-10."""
    worst = 0.0
    all_pruned = True
    widths = (3, 5, 7, 9)
    for i in range(50):
        circ = golden_ansatz(widths[i % 4], 1 + i % 2, i)
        full = reconstruct(circ, prune="off")
        pruned = reconstruct(circ, prune="exact")
        all_pruned &= (1, PauliOp.Y) in pruned.neglected
        worst = max(worst, float(np.max(np.abs(full.raw_distribution
                                               - pruned.raw_distribution))))
    _report(capsys, 2, worst <= 1e-10 and all_pruned,
            "pruned == unpruned over 50 ansatz circuits, max deviation %.3g "
            "(tol 1e-10), Y neglected in every run: %s" % (worst, all_pruned))


def test_criterion_3_term_counts(capsys):
    """Eigen-term drop 16 -> 12 at K=1, and tuple counts match direct
    enumeration for every cut mix up to 4 cuts."""
    ok = term_count(1, 0) == (4, 16) and term_count(0, 1) == (3, 12)
    for k_r in range(5):
        for k_g in range(5 - k_r):
            if k_r + k_g == 0 or k_r + k_g > 4:
                continue
            tuples, eigen = term_count(k_r, k_g)
            axes = [list("IXYZ")] * k_r + [["I", "X", "Z"]] * k_g
            combos = list(itertools.product(*axes))
            signs = list(itertools.product((0, 1), repeat=2 * (k_r + k_g)))
            ok &= tuples == len(combos)
            ok &= eigen == len(combos) * len(signs)
    _report(capsys, 3, ok,
            "term_count(1,0) = %s, term_count(0,1) = %s, enumeration agrees "
            "for K_r + K_g <= 4" % (term_count(1, 0), term_count(0, 1)))


def test_criterion_4_evaluation_savings(capsys):
    """K=1 with one golden basis and equal shots: execution ratio exactly
    2/3 (9 -> 6 variants) and tuple ratio exactly 3/4."""
    run = reconstruct(golden_ansatz(3, 1, 0), shots=1000, seed=0,
                      prune="known", neglect=[(1, "Y")])
    exec_ratio = Fraction(run.cost.variants_executed, run.cost.baseline_variants)
    shot_ratio = Fraction(run.cost.shots_total, run.cost.baseline_shots)
    tuple_ratio = Fraction(run.cost.basis_tuples_contracted,
                           run.cost.baseline_tuples)
    pruned, baseline = closed_form_counts(0, 1)
    ok = (exec_ratio == Fraction(2, 3)
          and shot_ratio == Fraction(2, 3)
          and tuple_ratio == Fraction(3, 4)
          and run.cost.variants_executed == 6
          and run.cost.baseline_variants == 9
          and pruned.variants_executed == 6
          and baseline.variants_executed == 9)
    _report(capsys, 4, ok,
            "executions %d/%d = %s, shots %s, tuples %d/%d = %s"
            % (run.cost.variants_executed, run.cost.baseline_variants,
               exec_ratio, shot_ratio, run.cost.basis_tuples_contracted,
               run.cost.baseline_tuples, tuple_ratio))


def test_criterion_5_fixture_checks(capsys):
    """Bell upstream fragment: X observable zeroes A[Z] and A[I]; the
    |+><+| observable zeroes A[Z]; detect_exact flags both at 1e-12."""
    circ = Circuit(3, (h(0), cnot(0, 1), cnot(1, 2)), (CutPoint(1, 1, 1),))
    f1, _ = bipartition(circ)
    obs_x = ObservableSpec.pauli_string([PauliOp.X], [0])
    obs_i = ObservableSpec.pauli_string([], [])
    t_x = build_tensor(run_fragment(f1, upstream_variants(f1, obs=obs_x)),
                       obs_x, "upstream")
    t_i = build_tensor(run_fragment(f1, upstream_variants(f1)),
                       obs_i, "upstream")
    t_plus = combine_tensors((t_i, t_x), (0.5, 0.5))
    a_z_i = abs(float(t_x.entry([PauliOp.Z])))
    a_i_i = abs(float(t_x.entry([PauliOp.I])))
    a_z_ii = abs(float(t_plus.entry([PauliOp.Z])))
    flag_i = detect_exact(t_x, eps=1e-12).entry(1, "Z").golden
    flag_ii = detect_exact(t_plus, eps=1e-12).entry(1, "Z").golden
    ok = (a_z_i <= 1e-12 and a_i_i <= 1e-12 and a_z_ii <= 1e-12
          and flag_i and flag_ii)
    _report(capsys, 5, ok,
            "case i |A[Z]| = %.2g, |A[I]| = %.2g, case ii |A[Z]| = %.2g, "
            "flagged at eps 1e-12: %s/%s" % (a_z_i, a_i_i, a_z_ii,
                                             flag_i, flag_ii))


def test_criterion_6_statistical_calibration(capsys):
    """1000 repetitions each: a signed sum pinned at 2*tau is falsely
    flagged at most alpha + 0.02 of the time, and a true golden basis at
    1e4 shots is flagged at least 95 percent of the time."""
    reps, shots = 1000, 10000
    # signed Z sum is cos(theta) = 0.04 = 2 * tau
    theta = math.acos(0.04)
    near = Circuit(1, (ry(theta, 0),), (CutPoint(0, 0, 1),))
    f_near, _ = bipartition(near)
    obs_i = ObservableSpec.pauli_string([], [])
    near_variants = upstream_variants(f_near, obs=obs_i)
    false_hits = 0
    for r in range(reps):
        results = run_fragment(f_near, near_variants, shots=shots,
                               seed=70000 + r)
        false_hits += detect_statistical(results, obs_i).entry(1, "Z").golden
    false_rate = false_hits / reps

    # real-amplitude fragment: the Y sum is identically zero
    zero = Circuit(2, (ry(2.2, 0), ry(0.7, 1), cnot(0, 1)),
                   (CutPoint(1, 2, 1),))
    f_zero, _ = bipartition(zero)
    obs_p = ObservableSpec.projector("0", (0,))
    zero_variants = upstream_variants(f_zero, obs=obs_p)
    true_hits = 0
    for r in range(reps):
        results = run_fragment(f_zero, zero_variants, shots=shots,
                               seed=80000 + r)
        true_hits += detect_statistical(results, obs_p).entry(1, "Y").golden
    true_rate = true_hits / reps

    ok = false_rate <= 0.05 + 0.02 and true_rate >= 0.95
    _report(capsys, 6, ok,
            "false-flag rate %.3f (bound 0.07), true-flag rate %.3f "
            "(bound 0.95) over %d reps at %d shots"
            % (false_rate, true_rate, reps, shots))


def test_criterion_7_finite_shot_trend(capsys):
    """5-qubit golden ansatz: median weighted distance over 20 trials does
    not increase as shots go 1e2 -> 1e3 -> 1e4."""
    circ = golden_ansatz(5, 2, 11)
    truth = ground_truth_distribution(circ)
    medians = []
    for shots in (100, 1000, 10000):
        dists = [
            weighted_distance(
                reconstruct(circ, shots=shots, seed=77, trial=t).distribution,
                truth)
            for t in range(20)
        ]
        medians.append(float(np.median(dists)))
    ok = medians[0] >= medians[1] >= medians[2]
    _report(capsys, 7, ok,
            "median d_w at (1e2, 1e3, 1e4) shots = (%.4g, %.4g, %.4g), "
            "non-increasing" % tuple(medians))


def test_criterion_8_byte_identical_csv(capsys, tmp_path):
    """Two cmd_run invocations with the same config and seed write
    byte-identical CSV."""
    circ = tmp_path / "circ.json"
    assert main(["generate", "--qubits", "3", "--depth", "1", "--seed", "2",
                 "--out", str(circ)]) == 0
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["run", "--circuit", str(circ), "--trials", "2", "--shots", "2000",
            "--seed", "13", "--prune", "statistical", "--tau", "0.05",
            "--format", "csv"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    same = out1.read_bytes() == out2.read_bytes()
    _report(capsys, 8, same,
            "identical config produced byte-identical CSV (%d bytes)"
            % len(out1.read_bytes()))
