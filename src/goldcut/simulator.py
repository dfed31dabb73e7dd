"""Exact statevector simulation, observables, sampling, and basis helpers.

A state is a plain complex vector of 2^n amplitudes. Everything here is an
infinite-shot oracle except sample(), which returns the per-outcome counts
of a multinomial draw from the exact Born distribution. Outcome indices
follow the package-wide bitstring convention: qubit 0 is the most
significant (leftmost) bit. One kernel (_run) runs a circuit from a
start over some live wires, every other wire in |0>, after checking the
MAX_QUBITS cap: simulate from no live wire, the downstream cut pass from
the cut wires with a batch of inputs. Each product takes only the columns
where the block's not-yet-live wires are 0, so the state grows by those
wires as it goes. The program is kept per circuit object and live-wire
tuple and makes one product per block of the cheapest grouping (_fuse),
whose matrix fuses the block's gates, so it agrees with a tensordot loop
to rounding (1e-12 in the tests). apply_gates compiles on every call, one
product per gate, the very product np.tensordot makes, so it equals a
tensordot loop to the bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, PauliOp, _as_int, _Derived, gate_matrix, h, sdg
from .errors import GoldcutError, IdentityBasisRequested, SupportMismatch, TooWide
from .seeding import stream

MAX_QUBITS = 14
_ATOL = 1e-10
# Gate fusion (see _fuse). FUSE_PASS estimates one pass over the state
# (the transpose and copy every product makes) in complex products per
# amplitude. Timed with BLAS at 1 thread on 2 vCPUs, medians of 80
# interleaved runs, against a fixed cap of 4: perfbench's batched
# multi-cut downstream pass ran 36-58% faster at K = 2-5 (K=4: 11 blocks
# become 2, of 7 and 6 qubits), and 3-layer rx + CNOT-chain circuits
# 48-63% faster at n = 8-11 and 9-13% at n = 12-14 (blocks of at most 5).
# A cap of 8 costs 11-28 ms to compile, against 2-5 ms for the chosen
# programs, and ran faster in one case only (n = 12, by 11%).
FUSE_WIDTH = 7
FUSE_PASS = 22


@dataclass(frozen=True)
class ObservableSpec(_Derived):
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


def simulate(circuit: Circuit) -> np.ndarray:
    """The state the circuit's gates make from |0...0>; a cut circuit raises ValueError."""
    if circuit.cuts:
        raise ValueError("simulate takes plain circuits; bipartition cut circuits first")
    return _run(circuit, np.ones((1, 1), dtype=complex), ()).reshape(-1)


def apply_gates(psi: np.ndarray, gates) -> np.ndarray:
    """Apply a gate sequence to any state, one product per gate, compiled
    anew on every call; the input state is left intact. A gate on a qubit
    outside the state raises ValueError before any work."""
    n, qubits = _width(psi), [q for g in gates for q in g.qubits]
    if qubits and not 0 <= min(qubits) <= max(qubits) < n:
        raise ValueError("gates on qubits %d..%d do not fit a %d-qubit state"
                         % (min(qubits), max(qubits), n))
    program = _plan([(g.qubits, g) for g in gates], n, range(n), _gate_columns)
    return _apply(psi.reshape(-1, 1), program).reshape(-1)


def _run(circuit, start, live):
    """The states circuit's gates make from start, a (2^len(live), batch)
    array over the live wires (live[0] its most significant bit) with every
    other wire in |0>, as a (2^n, batch) array in qubit order. The fused
    program is kept on the circuit per live tuple, compiled on first use; a
    circuit wider than MAX_QUBITS raises TooWide before that."""
    if circuit.n_qubits > MAX_QUBITS:
        raise TooWide("%d qubits exceeds the %d-qubit cap" % (circuit.n_qubits, MAX_QUBITS))
    return _apply(start, circuit._keep("_programs", live, lambda: _plan(
        _fuse(circuit.gates), circuit.n_qubits, live, _block_matrix)))


def _plan(ops, n, live, matrix):
    """The program that runs (qubits, item) ops on a start over the live
    wires of n: per op matrix(qubits, item, held), made read-only, held
    being its qubits already live, and the shape and transpose that put
    held first, then the other live wires ascending, then the batch; the
    op's other qubits become live. Then the final shape, the transpose to
    qubit order and, if some wire never became live, where the state sits
    in the full one (those wires |0>)."""
    steps, order = [], list(live)
    for qubits, item in ops:
        held = [q for q in qubits if q in order]
        rest = sorted(q for q in order if q not in qubits)
        u = matrix(qubits, item, held)
        u.setflags(write=False)
        steps.append((u, (2,) * len(order) + (-1,),
                      [*(order.index(q) for q in held + rest), len(order)]))
        order = [*qubits, *rest]
    back = [*sorted(range(len(order)), key=order.__getitem__), len(order)]
    fill = None if len(order) == n else tuple(slice(None) if q in order else 0 for q in range(n))
    return steps, (2,) * len(order) + (-1,), back, fill


def _apply(psi, program):
    """The kernel: per step, one np.dot on the state as the step transposes
    it; the state grows by the step's new wires."""
    steps, shape, back, fill = program
    for u, before, axes in steps:
        psi = np.dot(u, psi.reshape(before).transpose(axes).reshape(u.shape[1], -1))
    psi = psi.reshape(shape).transpose(back)
    if fill is None:
        return psi.reshape(-1, psi.shape[-1])
    full = np.zeros((2,) * len(fill) + psi.shape[-1:], dtype=complex)
    full[fill] = psi
    return full.reshape(-1, psi.shape[-1])


def _gate_columns(qubits, gate, held):
    """gate_matrix(gate) over qubits (in the gate's order) on the columns
    where those outside held are 0."""
    if len(held) == len(qubits):
        return gate_matrix(gate)
    u = gate_matrix(gate).reshape((-1,) + (2,) * len(qubits))
    return u[(slice(None),) + tuple(slice(None) if q in held else 0 for q in qubits)
             ].reshape(len(u), -1)


def _fuse(gates) -> list:
    """_group's blocks at the cap up to FUSE_WIDTH of least cost, FUSE_PASS
    plus 2^k per k-qubit block, the narrowest on a tie; caps past the
    gates' qubit count all give one block."""
    wires = len({q for g in gates for q in g.qubits})
    return min((_group(gates, cap) for cap in range(1, min(wires, FUSE_WIDTH) + 1)),
               key=lambda blocks: sum(FUSE_PASS + 2 ** len(q) for q, _ in blocks), default=[])


def _group(gates, cap) -> list:
    """The gates as (qubits, member gates) blocks, in one greedy pass.

    A gate joins the latest block that touches any of its qubits, or the
    last block if none does, when the union of qubits stays within cap;
    otherwise it opens a new block. No later block touches its qubits, so
    it commutes past them. Only a lone gate wider than cap makes a wider
    block.
    """
    blocks, latest = [], {}
    for g in gates:
        i = max((latest[q] for q in g.qubits if q in latest), default=len(blocks) - 1)
        if i < 0 or len(set(blocks[i][0]) | set(g.qubits)) > cap:
            i = len(blocks)
            blocks.append(([], []))
        qubits, members = blocks[i]
        qubits += [q for q in g.qubits if q not in qubits]
        members.append(g)
        latest.update((q, i) for q in g.qubits)
    return blocks


def _block_matrix(qubits, members, held) -> np.ndarray:
    """A block's matrix over its qubits, in their order, on the columns
    where those outside held are 0: the kernel run from the identity over
    the held qubits, or a lone gate's _gate_columns."""
    if len(members) == 1:
        return _gate_columns(qubits, members[0], held)
    local = {q: j for j, q in enumerate(qubits)}
    return _apply(np.eye(2 ** len(held), dtype=complex), _plan(
        [([local[q] for q in g.qubits], g) for g in members], len(qubits),
        [local[q] for q in held], _gate_columns))


def exact_distribution(psi: np.ndarray, qubits) -> np.ndarray:
    """Marginal Born probabilities over the given qubits, in their order.

    The returned vector is indexed by bitstring with qubits[0] as the most
    significant bit.
    """
    n = _width(psi)
    qubits = tuple(qubits)
    _check_support(n, qubits)
    probs = np.abs(psi.reshape((2,) * n)) ** 2
    if qubits == tuple(range(n)):
        return probs.reshape(-1)
    rest = [q for q in range(n) if q not in qubits]
    return probs.transpose(qubits + tuple(rest)).reshape(2 ** len(qubits), -1).sum(axis=1)


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


def check_shots(shots) -> None:
    """Raise ValueError unless shots is a Python or numpy integer (no bool) of at least 1."""
    if _as_int(shots, "shots") < 1:
        raise ValueError("shots must be at least 1")


def sample(psi: np.ndarray, qubits, shots: int, seed) -> np.ndarray:
    """Multinomial sampling of the exact distribution; deterministic in seed.

    Returns the integer count per outcome, indexed like exact_distribution
    and summing to shots, which check_shots must accept; seed may be an
    integer or an already-split numpy Generator.
    """
    check_shots(shots)
    rng = seed if isinstance(seed, np.random.Generator) else stream(seed)
    p = exact_distribution(psi, qubits)
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
