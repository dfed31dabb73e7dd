"""Exact statevector simulation, observables, sampling, and basis helpers.

A state is a plain complex vector of 2^n amplitudes. Everything here is an
infinite-shot oracle except sample(), which returns the per-outcome counts
of a multinomial draw from the exact Born distribution. Outcome indices
follow the package-wide bitstring convention: qubit 0 is the most
significant (leftmost) bit. apply_gates makes one matrix product per gate
on a state narrower than FUSE_FROM qubits, the very product np.tensordot
would make, so its amplitudes equal those of a tensordot loop to the bit.
A wider state gets one product per block of up to FUSE_WIDTH qubits, whose
matrix fuses the block's gates; its amplitudes agree with the tensordot
loop to rounding (1e-12 in the tests), not to the bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, PauliOp, _as_int, gate_matrix, h, sdg
from .errors import (
    GoldcutError,
    IdentityBasisRequested,
    InvalidInitial,
    SupportMismatch,
    TooWide,
)
from .seeding import stream

MAX_QUBITS = 14
_ATOL = 1e-10
# Gate fusion (see _group). Timed with BLAS at 1 thread on a 2-vCPU x86
# machine, OpenBLAS 0.3.31: a complex product costs 3-6 us at any size up
# to 16 x 256, so folding a gate into a block matrix costs about as much as
# applying it to a 10-qubit state, and fusion pays only on wider states.
# Fused over unfused apply_gates, medians of 200-300 interleaved calls, on
# 3-layer rx + CNOT-chain circuits over all n wires and on batched
# downstream passes (multicut_circuit(K, 201) for K = 1..4 and three test
# fragments at n = 11): 1.6-1.9 at n = 6..9, 1.3-1.5 at n = 10,
# 1.1-1.35 at n = 11, 0.83-0.99 at n = 12, 0.63-0.68 at n = 13 and
# 0.5-0.61 at n = 14. At n = 12 and 14, blocks of at most 4 qubits were as
# fast as 5 and 6-10% faster than 3; blocks of 2 took 1.3-1.5x as long.
FUSE_WIDTH = 4
FUSE_FROM = 12


@dataclass(frozen=True)
class ObservableSpec:
    """Observable on a subset of qubits.

    kind is one of "pauli" (one PauliOp per support qubit), "projector"
    (a target bitstring over the support), or "distribution" (marker for
    the full bitstring distribution over the support). Pauli labels may be
    given as PauliOp or its letter; they are stored as PauliOp, and an
    unknown label raises ValueError.
    """

    kind: str
    qubits: tuple
    paulis: tuple = ()
    bits: str = ""

    def __post_init__(self):
        if self.kind not in ("pauli", "projector", "distribution"):
            raise ValueError("unknown observable kind %r" % (self.kind,))
        object.__setattr__(self, "qubits",
                           tuple(_as_int(q, "observable qubit") for q in self.qubits))
        object.__setattr__(self, "paulis", tuple(PauliOp(p) for p in self.paulis))
        if len(set(self.qubits)) != len(self.qubits):
            raise SupportMismatch("repeated qubit in support")
        if self.kind == "pauli" and len(self.paulis) != len(self.qubits):
            raise SupportMismatch("need one Pauli per support qubit")
        if self.kind == "projector" and len(self.bits) != len(self.qubits):
            raise SupportMismatch("projector bitstring length must match support")
        if self.kind == "projector" and not set(self.bits) <= {"0", "1"}:
            raise ValueError("projector bits must be '0' or '1', got %r" % (self.bits,))

    @classmethod
    def pauli_string(cls, labels, qubits) -> "ObservableSpec":
        return cls("pauli", tuple(qubits), paulis=labels)

    @classmethod
    def projector(cls, bits: str, qubits) -> "ObservableSpec":
        return cls("projector", tuple(qubits), bits=bits)

    @classmethod
    def distribution(cls, qubits) -> "ObservableSpec":
        return cls("distribution", tuple(qubits))


def _width(psi) -> int:
    """The qubit count n of a 2^n amplitude vector; any other length
    raises ValueError."""
    n = int(psi.size).bit_length() - 1
    if n < 0 or psi.size != 1 << n:
        raise ValueError("a state has 2^n amplitudes, got %d" % psi.size)
    return n


def _check_support(n_qubits: int, qubits) -> None:
    if len(set(qubits)) != len(qubits):
        raise SupportMismatch("repeated qubit in support")
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise SupportMismatch("qubit %d outside width %d" % (q, n_qubits))


def simulate(circuit: Circuit, initial=None) -> np.ndarray:
    """Apply the gate sequence to a product initial state.

    initial is None for all-|0>, or a sequence with one entry per qubit:
    None for |0> or a normalized length-2 amplitude pair.
    """
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise TooWide("%d qubits exceeds the %d-qubit cap" % (n, MAX_QUBITS))
    if circuit.cuts:
        raise ValueError("simulate takes plain circuits; bipartition cut circuits first")
    if initial is not None and len(initial) != n:
        raise InvalidInitial("initial has %d entries for %d qubits" % (len(initial), n))

    zero = np.array([1.0, 0.0], dtype=complex)
    psi = np.array([1.0], dtype=complex)
    for q in range(n):
        vec = zero
        if initial is not None and initial[q] is not None:
            vec = np.asarray(initial[q], dtype=complex).reshape(2)
            if abs(np.linalg.norm(vec) - 1.0) > _ATOL:
                raise InvalidInitial("initial state on qubit %d is not normalized" % q)
        psi = np.multiply.outer(psi, vec).reshape(-1)
    return apply_gates(psi, circuit.gates)


def apply_gates(psi: np.ndarray, gates) -> np.ndarray:
    """Apply a gate sequence to any state; the input state is left intact.

    A state of FUSE_FROM qubits or more (reference axes count) gets one
    product per block of _group, a narrower one one product per gate.
    """
    n = _width(psi)
    if n < FUSE_FROM:
        ops = [(gate_matrix(g), g.qubits) for g in gates]
    else:
        ops = [(_block_matrix(qubits, members), qubits) for qubits, members in _group(gates)]
    return _apply(psi, n, ops)


def _apply(psi, n, ops):
    """The kernel: per (matrix, qubits) op, one np.dot on the state
    transposed to (op qubits, the rest ascending); order[i] is the qubit
    axis i holds until the final transpose."""
    shape, order = (2,) * n, list(range(n))
    for u, qubits in ops:
        front = [*qubits, *(q for q in range(n) if q not in qubits)]
        psi = psi.reshape(shape).transpose([order.index(q) for q in front])
        psi, order = np.dot(u, psi.reshape(2 ** len(qubits), -1)), front
    return psi.reshape(shape).transpose(np.argsort(order)).reshape(-1)


def _group(gates) -> list:
    """The gates as (qubits, member gates) blocks, in one greedy pass.

    A gate joins the latest block that touches any of its qubits, or the
    last block if none does, when the union of qubits stays within
    FUSE_WIDTH; otherwise it opens a new block. No later block touches its
    qubits, so it commutes past them. Only a lone gate wider than
    FUSE_WIDTH makes a wider block.
    """
    blocks, latest = [], {}
    for g in gates:
        i = max((latest[q] for q in g.qubits if q in latest), default=len(blocks) - 1)
        if i < 0 or len(set(blocks[i][0]) | set(g.qubits)) > FUSE_WIDTH:
            i = len(blocks)
            blocks.append(([], []))
        qubits, members = blocks[i]
        qubits += [q for q in g.qubits if q not in qubits]
        members.append(g)
        latest.update((q, i) for q in g.qubits)
    return blocks


def _block_matrix(qubits, members) -> np.ndarray:
    """A block's matrix over its qubits, in their order: the kernel run on
    the block's 2k-qubit identity, or a lone gate's gate_matrix."""
    if len(members) == 1:
        return gate_matrix(members[0])
    k, local = len(qubits), {q: j for j, q in enumerate(qubits)}
    u = _apply(np.eye(2 ** k, dtype=complex).reshape(-1), 2 * k,
               [(gate_matrix(g), [local[q] for q in g.qubits]) for g in members])
    return u.reshape(2 ** k, -1)


def exact_distribution(psi: np.ndarray, qubits) -> np.ndarray:
    """Marginal Born probabilities over the given qubits, in their order.

    The returned vector is indexed by bitstring with qubits[0] as the most
    significant bit.
    """
    n = _width(psi)
    qubits = tuple(qubits)
    _check_support(n, qubits)
    probs = np.abs(psi.reshape((2,) * n)) ** 2
    if not qubits:
        return np.array([probs.sum()])
    if qubits == tuple(range(n)):
        return probs.reshape(-1)
    rest = [q for q in range(n) if q not in qubits]
    return probs.transpose(tuple(qubits) + tuple(rest)).reshape(
        2 ** len(qubits), -1
    ).sum(axis=1)


def exact_expectation(psi: np.ndarray, obs: ObservableSpec) -> float:
    """tr(O rho) for rho = |psi><psi|; the imaginary residue is checked."""
    _check_support(_width(psi), obs.qubits)
    if obs.kind == "projector":
        if not obs.qubits:
            return 1.0
        return float(exact_distribution(psi, obs.qubits)[int(obs.bits, 2)])
    if obs.kind != "pauli":
        raise SupportMismatch("expectation needs a pauli or projector observable")
    if not obs.qubits:
        return 1.0
    flips = [Gate(p.value.lower(), (q,)) for q, p in zip(obs.qubits, obs.paulis) if p.value != "I"]
    value = np.vdot(psi, apply_gates(psi, flips))
    if not abs(value.imag) <= _ATOL:
        raise GoldcutError("imaginary residue %g in a Pauli expectation" % value.imag)
    return float(value.real)


def sample(psi: np.ndarray, qubits, shots: int, seed) -> np.ndarray:
    """Multinomial sampling of the exact distribution; deterministic in seed.

    Returns the integer count per outcome, indexed like exact_distribution
    and summing to shots. shots must be a Python or numpy integer; seed may
    be an integer or an already-split numpy Generator.
    """
    if _as_int(shots, "shots") < 1:
        raise ValueError("shots must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else stream(int(seed))
    p = exact_distribution(psi, qubits)
    p = np.clip(p, 0.0, None)
    return rng.multinomial(shots, p / p.sum())


def basis_rotation(p: PauliOp, qubit: int = 0) -> list:
    """Gates mapping the +1/-1 eigenbasis of p onto |0>/|1>.

    After these gates a computational-basis readout realizes a p-basis
    measurement with outcome bit 0 meaning eigenvalue +1. The identity is
    never measured directly; its data comes from the Z setting.
    """
    if p is PauliOp.I:
        raise IdentityBasisRequested("identity reuses Z-basis data")
    if p is PauliOp.Z:
        return []
    if p is PauliOp.X:
        return [h(qubit)]
    return [sdg(qubit), h(qubit)]
