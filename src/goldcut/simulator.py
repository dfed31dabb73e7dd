"""Exact statevector simulation, observables, sampling, and basis helpers.

Everything here is an infinite-shot oracle except sample(), which returns
the per-outcome counts of a multinomial draw from the exact Born
distribution. Outcome indices follow the package-wide bitstring convention:
qubit 0 is the most significant (leftmost) bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, PauliOp, _as_int, gate_matrix, h, sdg
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


@dataclass(frozen=True)
class StateVector:
    amplitudes: np.ndarray

    @property
    def n_qubits(self) -> int:
        return int(self.amplitudes.size).bit_length() - 1


@dataclass(frozen=True)
class ObservableSpec:
    """Observable on a subset of qubits.

    kind is one of "pauli" (one PauliOp per support qubit), "projector"
    (a target bitstring over the support), or "distribution" (marker for
    the full bitstring distribution over the support).
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
        object.__setattr__(self, "paulis", tuple(self.paulis))
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
        paulis = tuple(p if isinstance(p, PauliOp) else PauliOp(p) for p in labels)
        return cls("pauli", tuple(qubits), paulis=paulis)

    @classmethod
    def projector(cls, bits: str, qubits) -> "ObservableSpec":
        return cls("projector", tuple(qubits), bits=bits)

    @classmethod
    def distribution(cls, qubits) -> "ObservableSpec":
        return cls("distribution", tuple(qubits))


def _check_support(n_qubits: int, qubits) -> None:
    if len(set(qubits)) != len(qubits):
        raise SupportMismatch("repeated qubit in support")
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise SupportMismatch("qubit %d outside width %d" % (q, n_qubits))


def simulate(circuit: Circuit, initial=None) -> StateVector:
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
        psi = np.kron(psi, vec)
    return apply_gates(StateVector(psi), circuit.gates)


def apply_gates(state: StateVector, gates) -> StateVector:
    """Apply a gate sequence to any state; the input state is left intact."""
    n = state.n_qubits
    psi = state.amplitudes.reshape((2,) * n) if n else state.amplitudes
    for g in gates:
        k = len(g.qubits)
        u = gate_matrix(g).reshape((2,) * (2 * k))
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), list(g.qubits)))
        psi = np.moveaxis(psi, list(range(k)), list(g.qubits))
    return StateVector(psi.reshape(-1))


def exact_distribution(state: StateVector, qubits) -> np.ndarray:
    """Marginal Born probabilities over the given qubits, in their order.

    The returned vector is indexed by bitstring with qubits[0] as the most
    significant bit.
    """
    n = state.n_qubits
    qubits = tuple(qubits)
    _check_support(n, qubits)
    probs = np.abs(state.amplitudes.reshape((2,) * n)) ** 2
    if not qubits:
        return np.array([probs.sum()])
    if qubits == tuple(range(n)):
        return probs.reshape(-1)
    rest = [q for q in range(n) if q not in qubits]
    return probs.transpose(tuple(qubits) + tuple(rest)).reshape(
        2 ** len(qubits), -1
    ).sum(axis=1)


def exact_expectation(state: StateVector, obs: ObservableSpec) -> float:
    """tr(O rho) for rho = |psi><psi|; the imaginary residue is checked."""
    n = state.n_qubits
    _check_support(n, obs.qubits)
    if obs.kind == "projector":
        if not obs.qubits:
            return 1.0
        return float(exact_distribution(state, obs.qubits)[int(obs.bits, 2)])
    if obs.kind != "pauli":
        raise SupportMismatch("expectation needs a pauli or projector observable")
    if not obs.qubits:
        return 1.0
    psi = state.amplitudes.reshape((2,) * n)
    phi = psi
    for q, p in zip(obs.qubits, obs.paulis):
        if p is PauliOp.I:
            continue
        phi = np.tensordot(p.matrix, phi, axes=([1], [q]))
        phi = np.moveaxis(phi, 0, q)
    value = np.vdot(psi, phi)
    if not abs(value.imag) <= _ATOL:
        raise GoldcutError("imaginary residue %g in a Pauli expectation" % value.imag)
    return float(value.real)


def sample(state: StateVector, qubits, shots: int, seed) -> np.ndarray:
    """Multinomial sampling of the exact distribution; deterministic in seed.

    Returns the integer count per outcome, indexed like exact_distribution
    and summing to shots. shots must be a Python or numpy integer; seed may
    be an integer or an already-split numpy Generator.
    """
    if _as_int(shots, "shots") < 1:
        raise ValueError("shots must be at least 1")
    rng = seed if isinstance(seed, np.random.Generator) else stream(int(seed))
    p = exact_distribution(state, qubits)
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
