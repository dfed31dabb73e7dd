"""Circuit intermediate representation, cut bipartition, and generators.

Conventions shared by the whole package:

* Bitstrings are most-significant-qubit-first: qubit 0 is the leftmost bit
  of every serialized bitstring, and basis-state index i stores qubit q in
  bit (n - 1 - q) of i.
* Multi-qubit gate matrices use the same ordering; the first listed target
  qubit is the most significant axis of the matrix (CNOT below has its
  control first).
* A cut point sits on one wire immediately after the gate with index
  after_gate; after_gate = -1 puts the cut before any gate on that wire.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import AnsatzNotGolden, CyclicCut, NotBipartite
from .seeding import stream

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


class PauliOp(Enum):
    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"

    @property
    def matrix(self) -> np.ndarray:
        return _PAULI_MATRICES[self].copy()


_PAULI_MATRICES = {
    PauliOp.I: np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
    PauliOp.X: np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    PauliOp.Y: np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    PauliOp.Z: np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def _is_int(value) -> bool:
    """True for Python and numpy integers; False for booleans and floats,
    which int() would silently coerce."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _as_int(value, what) -> int:
    if not _is_int(value):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return int(value)


@dataclass(frozen=True)
class Gate:
    """One gate: a named kind with target qubits, or an opaque unitary.

    The matrix field is only set for kind "unitary" and is stored as nested
    tuples so gates stay hashable; use gate_matrix() to get the ndarray.
    """

    kind: str
    qubits: tuple
    params: tuple = ()
    matrix: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(_as_int(q, "gate qubit") for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.matrix is not None:
            rows = tuple(tuple(complex(v) for v in row) for row in self.matrix)
            object.__setattr__(self, "matrix", rows)


def h(q):
    return Gate("h", (q,))


def x(q):
    return Gate("x", (q,))


def y(q):
    return Gate("y", (q,))


def z(q):
    return Gate("z", (q,))


def s(q):
    return Gate("s", (q,))


def sdg(q):
    return Gate("sdg", (q,))


def rx(theta, q):
    return Gate("rx", (q,), (theta,))


def ry(theta, q):
    return Gate("ry", (q,), (theta,))


def rz(theta, q):
    return Gate("rz", (q,), (theta,))


def cnot(control, target):
    return Gate("cnot", (control, target))


def cz(a, b):
    return Gate("cz", (a, b))


def unitary(matrix, *qubits):
    return Gate("unitary", tuple(qubits), (), tuple(tuple(row) for row in np.asarray(matrix)))


_FIXED_MATRICES = {
    "h": np.array([[_INV_SQRT2, _INV_SQRT2], [_INV_SQRT2, -_INV_SQRT2]], dtype=complex),
    "x": _PAULI_MATRICES[PauliOp.X],
    "y": _PAULI_MATRICES[PauliOp.Y],
    "z": _PAULI_MATRICES[PauliOp.Z],
    "s": np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex),
    "sdg": np.array([[1.0, 0.0], [0.0, -1.0j]], dtype=complex),
    "cnot": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex),
}

_ROTATIONS = {"rx", "ry", "rz"}

GATE_ARITY = {
    "h": 1, "x": 1, "y": 1, "z": 1, "s": 1, "sdg": 1,
    "rx": 1, "ry": 1, "rz": 1, "cnot": 2, "cz": 2,
}


def gate_matrix(gate: Gate) -> np.ndarray:
    """Return the unitary matrix of a gate as a complex ndarray."""
    if gate.kind in _FIXED_MATRICES:
        return _FIXED_MATRICES[gate.kind].copy()
    if gate.kind in _ROTATIONS:
        (theta,) = gate.params
        c = math.cos(theta / 2.0)
        sn = math.sin(theta / 2.0)
        if gate.kind == "rx":
            return np.array([[c, -1j * sn], [-1j * sn, c]], dtype=complex)
        if gate.kind == "ry":
            return np.array([[c, -sn], [sn, c]], dtype=complex)
        return np.array(
            [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
        )
    if gate.kind == "unitary":
        if gate.matrix is None:
            raise ValueError("opaque gate missing its matrix")
        return np.array(gate.matrix, dtype=complex)
    raise ValueError("unknown gate kind %r" % gate.kind)


@dataclass(frozen=True)
class CutPoint:
    qubit: int
    after_gate: int
    cut_id: int


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple = ()
    cuts: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "cuts", tuple(self.cuts))

    @property
    def n_cuts(self) -> int:
        return len(self.cuts)


def uncut(circuit: Circuit) -> Circuit:
    """Return the same circuit with all cut markers removed."""
    return replace(circuit, cuts=())


@dataclass(frozen=True)
class Fragment:
    """One side of a bipartitioned circuit.

    local qubit i of the fragment corresponds to parent_qubits[i] in the
    parent circuit. Cut interfaces are (cut_id, local qubit) pairs sorted
    by cut_id. output_qubits are the local wires whose terminal state feeds
    the final observable: for an upstream fragment that is every wire except
    the measured cut wires, for a downstream fragment it is every wire.
    """

    circuit: Circuit
    upstream_cut_qubits: tuple = ()
    downstream_cut_qubits: tuple = ()
    output_qubits: tuple = ()
    parent_qubits: tuple = ()

    @property
    def side(self) -> str:
        return "upstream" if self.upstream_cut_qubits else "downstream"


@dataclass
class ValidationReport:
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(circuit: Circuit) -> ValidationReport:
    """Collect structural violations without raising."""
    bad = []
    n = circuit.n_qubits
    if not _is_int(n):
        return ValidationReport(["n_qubits must be an integer, got %r" % (n,)])
    if n < 1:
        bad.append("n_qubits must be positive")
    for i, g in enumerate(circuit.gates):
        if g.kind not in GATE_ARITY and g.kind != "unitary":
            bad.append("gate %d: unknown kind %r" % (i, g.kind))
            continue
        if len(set(g.qubits)) != len(g.qubits):
            bad.append("gate %d: repeated target qubit" % i)
        for q in g.qubits:
            if not 0 <= q < n:
                bad.append("gate %d: qubit %d out of range" % (i, q))
        if g.kind in _ROTATIONS:
            if len(g.params) != 1:
                bad.append("gate %d: rotation needs exactly one angle" % i)
            elif not math.isfinite(g.params[0]):
                bad.append("gate %d: angle %r is not finite" % (i, g.params[0]))
        elif g.params:
            bad.append("gate %d: unexpected parameters" % i)
        if g.kind == "unitary":
            if len(g.qubits) > 3:
                bad.append("gate %d: opaque unitaries are capped at 3 qubits" % i)
            elif g.matrix is None:
                bad.append("gate %d: opaque gate missing matrix" % i)
            else:
                m = np.array(g.matrix, dtype=complex)
                dim = 2 ** len(g.qubits)
                if m.shape != (dim, dim):
                    bad.append("gate %d: matrix shape %s does not fit %d qubit(s)"
                               % (i, m.shape, len(g.qubits)))
                elif not np.max(np.abs(m @ m.conj().T - np.eye(dim))) <= 1e-10:
                    bad.append("gate %d: non-unitary matrix" % i)
        elif g.kind in GATE_ARITY and len(g.qubits) != GATE_ARITY[g.kind]:
            bad.append("gate %d: %s takes %d qubit(s)" % (i, g.kind, GATE_ARITY[g.kind]))
    seen_pos = set()
    seen_qubit = {}
    ids = [c.cut_id for c in circuit.cuts]
    for c in circuit.cuts:
        odd = [f for f in ("qubit", "after_gate", "cut_id") if not _is_int(getattr(c, f))]
        if odd:
            bad += ["%r: %s is not an integer" % (c, f) for f in odd]
            continue
        if not 0 <= c.qubit < n:
            bad.append("cut %d: qubit %d out of range" % (c.cut_id, c.qubit))
        if not -1 <= c.after_gate < len(circuit.gates):
            bad.append("cut %d: after_gate %d out of range" % (c.cut_id, c.after_gate))
        if (c.qubit, c.after_gate) in seen_pos:
            bad.append("duplicate cut at qubit %d after gate %d" % (c.qubit, c.after_gate))
        seen_pos.add((c.qubit, c.after_gate))
        if c.qubit in seen_qubit and seen_qubit[c.qubit] != c.cut_id:
            bad.append("cuts %d and %d share qubit %d; one cut per wire"
                       % (seen_qubit[c.qubit], c.cut_id, c.qubit))
        seen_qubit.setdefault(c.qubit, c.cut_id)
    if ids and sorted(ids) != list(range(1, len(ids) + 1)):
        bad.append("cut ids must be 1..K without repeats, got %s" % sorted(ids))
    return ValidationReport(bad)


class _UnionFind:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def bipartition(circuit: Circuit):
    """Split a cut circuit into its upstream and downstream fragment.

    Every wire is divided into segments at its cut (if any); gates merge the
    segments they touch. The cuts must leave exactly two connected
    components, with every cut oriented the same way: all pre-cut segments
    upstream, all post-cut segments downstream.

    Returns (f1, f2) with f1 the upstream fragment.
    """
    if not circuit.cuts:
        raise ValueError("bipartition needs at least one cut")
    report = validate(circuit)
    if not report.ok:
        raise ValueError("invalid circuit: %s" % "; ".join(report.violations))

    cut_on = {c.qubit: c for c in circuit.cuts}
    seg_id = {}
    for q in range(circuit.n_qubits):
        seg_id[(q, 0)] = len(seg_id)
        if q in cut_on:
            seg_id[(q, 1)] = len(seg_id)
    uf = _UnionFind(len(seg_id))

    def seg_of(q, gate_index):
        c = cut_on.get(q)
        if c is None or gate_index <= c.after_gate:
            return seg_id[(q, 0)]
        return seg_id[(q, 1)]

    gate_seg = []
    for i, g in enumerate(circuit.gates):
        segs = [seg_of(q, i) for q in g.qubits]
        for other in segs[1:]:
            uf.union(segs[0], other)
        gate_seg.append(segs[0])

    roots = {uf.find(sid) for sid in seg_id.values()}
    if len(roots) != 2:
        raise NotBipartite(
            "cuts split the circuit into %d component(s), need exactly 2" % len(roots)
        )

    up_root = None
    for c in circuit.cuts:
        pre = uf.find(seg_id[(c.qubit, 0)])
        post = uf.find(seg_id[(c.qubit, 1)])
        if pre == post:
            raise CyclicCut("cut %d does not separate its wire" % c.cut_id)
        if up_root is None:
            up_root = pre
        elif pre != up_root:
            raise CyclicCut("cuts have mixed orientation; fragments feed back")
    down_root = next(r for r in roots if r != up_root)

    def build(root, side):
        locals_ = sorted(
            q for q in range(circuit.n_qubits)
            if any(uf.find(seg_id[(q, part)]) == root
                   for part in (0, 1) if (q, part) in seg_id)
        )
        index = {q: i for i, q in enumerate(locals_)}
        gates = tuple(
            replace(g, qubits=tuple(index[q] for q in g.qubits))
            for g, sid in zip(circuit.gates, gate_seg)
            if uf.find(sid) == root
        )
        sub = Circuit(len(locals_), gates, ())
        cut_pairs = tuple(
            (c.cut_id, index[c.qubit])
            for c in sorted(circuit.cuts, key=lambda c: c.cut_id)
        )
        if side == "upstream":
            cut_locals = {index[c.qubit] for c in circuit.cuts}
            outputs = tuple(i for i in range(len(locals_)) if i not in cut_locals)
            return Fragment(sub, cut_pairs, (), outputs, tuple(locals_))
        return Fragment(sub, (), cut_pairs, tuple(range(len(locals_))), tuple(locals_))

    return build(up_root, "upstream"), build(down_root, "downstream")


def random_circuit(n_qubits: int, depth: int, seed: int) -> Circuit:
    """Seeded random circuit from a fixed gate dictionary.

    Each layer places one single-qubit gate per wire, drawn from rx, ry, rz
    (angle uniform in [0, 6.28]) and h, then floor(n/2) CNOT gates on random
    distinct pairs. depth 0 gives an empty circuit. No cuts are attached.
    """
    if n_qubits < 1:
        raise ValueError("n_qubits must be at least 1")
    rng = stream(seed)
    kinds = ("rx", "ry", "rz", "h")
    gates = []
    for _ in range(depth):
        for q in range(n_qubits):
            kind = kinds[rng.integers(len(kinds))]
            if kind == "h":
                gates.append(h(q))
            else:
                gates.append(Gate(kind, (q,), (rng.uniform(0.0, 6.28),)))
        if n_qubits >= 2:
            for _ in range(n_qubits // 2):
                a, b = rng.choice(n_qubits, size=2, replace=False)
                gates.append(cnot(int(a), int(b)))
    return Circuit(n_qubits, tuple(gates), ())


def golden_ansatz(n_qubits: int, depth: int, seed: int) -> Circuit:
    """Generate a single-cut circuit whose Y basis at the cut is golden.

    The upstream block uses only real gates (ry layers, CNOT chains and
    occasional cz), which forces every Y-signed term of the upstream
    tensor to vanish for computational-basis projector observables. The
    downstream block mixes rx, ry and rz layers with CNOT chains. One cut
    sits on the middle wire between the two blocks.

    The construction is certified before returning: AnsatzNotGolden is
    raised unless exact detection at GENERATION_EPS reports the Y basis
    golden.
    """
    from .golden import GENERATION_EPS
    from .pipeline import upstream_report

    if n_qubits not in (3, 5, 7, 9):
        raise ValueError("odd width required: n_qubits must be one of 3, 5, 7, 9")
    if depth < 1:
        raise ValueError("depth must be at least 1")
    mid = n_qubits // 2
    rng = stream(seed, 0)
    gates = []
    for _ in range(depth):
        for q in range(mid + 1):
            gates.append(ry(rng.uniform(0.0, 6.28), q))
        for q in range(mid):
            gates.append(cnot(q, q + 1))
            if rng.random() < 0.5:
                gates.append(cz(q, q + 1))
    cut_after = len(gates) - 1
    kinds = ("rx", "ry", "rz")
    for _ in range(depth):
        for q in range(mid, n_qubits):
            kind = kinds[rng.integers(len(kinds))]
            gates.append(Gate(kind, (q,), (rng.uniform(0.0, 6.28),)))
        for q in range(mid, n_qubits - 1):
            gates.append(cnot(q, q + 1))
    circuit = Circuit(n_qubits, tuple(gates), (CutPoint(mid, cut_after, 1),))
    _, report = upstream_report(bipartition(circuit)[0], eps=GENERATION_EPS)
    if not report.entry(1, "Y").golden:
        raise AnsatzNotGolden("ansatz failed Y-golden certification; template is wrong")
    return circuit


def _fmt(value: float) -> str:
    """Format a float with 17 significant digits (exact round trip; -0.0
    keeps its point, since JSON reads "-0" as the integer 0)."""
    text = format(float(value), ".17g")
    return "-0.0" if text == "-0" else text


def _gate_json(g: Gate) -> str:
    parts = [
        '"kind": %s' % json.dumps(g.kind),
        '"qubits": [%s]' % ", ".join(str(q) for q in g.qubits),
        '"params": [%s]' % ", ".join(_fmt(p) for p in g.params),
    ]
    if g.matrix is not None:
        flat = [v for row in g.matrix for v in row]
        pairs = ", ".join("[%s, %s]" % (_fmt(v.real), _fmt(v.imag)) for v in flat)
        parts.append('"matrix": [%s]' % pairs)
    return "{%s}" % ", ".join(parts)


def to_json(circuit: Circuit) -> str:
    """Canonical circuit JSON: fixed key order, 17-digit floats."""
    gates = ", ".join(_gate_json(g) for g in circuit.gates)
    cuts = ", ".join(
        '{"qubit": %d, "after_gate": %d, "cut_id": %d}' % (c.qubit, c.after_gate, c.cut_id)
        for c in circuit.cuts
    )
    return ('{"n_qubits": %d, "gates": [%s], "cuts": [%s]}'
            % (circuit.n_qubits, gates, cuts))


def from_json(text: str) -> Circuit:
    data = json.loads(text)
    gates = []
    for g in data.get("gates", []):
        matrix = None
        if g.get("matrix") is not None:
            flat = [complex(re, im) for re, im in g["matrix"]]
            dim = 2 ** len(g["qubits"])
            if len(flat) != dim * dim:
                raise ValueError("matrix length %d does not fit %d qubit(s)"
                                 % (len(flat), len(g["qubits"])))
            matrix = tuple(tuple(flat[r * dim:(r + 1) * dim]) for r in range(dim))
        gates.append(Gate(g["kind"], tuple(g["qubits"]), tuple(g.get("params", ())), matrix))
    cuts = tuple(
        CutPoint(*(_as_int(c[f], "cut %s" % f) for f in ("qubit", "after_gate", "cut_id")))
        for c in data.get("cuts", ())
    )
    return Circuit(_as_int(data["n_qubits"], "n_qubits"), tuple(gates), cuts)


def save(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_json(circuit))
        fh.write("\n")


def load(path) -> Circuit:
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())
