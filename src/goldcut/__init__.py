"""Circuit cutting with golden-cutting-point pruning.

Cut small circuits at marked wires, execute the two fragments as
measurement and preparation variants on the built-in statevector
simulator, reconstruct uncut expectations or bitstring distributions by
signed tensor contraction, and drop basis terms whose contribution
provably (or statistically) vanishes.
"""
from .circuits import (
    Circuit,
    CutPoint,
    Fragment,
    Gate,
    PauliOp,
    bipartition,
    cnot,
    cz,
    from_json,
    golden_ansatz,
    h,
    load,
    random_circuit,
    rx,
    ry,
    rz,
    s,
    save,
    sdg,
    to_json,
    uncut,
    unitary,
    validate,
    x,
    y,
    z,
)
from .errors import GoldcutError
from .fragmenter import (
    VariantKey,
    VariantResult,
    downstream_variants,
    run_fragment,
    upstream_variants,
)
from .golden import GoldenReport, detect_exact, detect_statistical
from .metrics import CostReport, cost_report, weighted_distance
from .pipeline import reconstruct
from .reconstructor import (
    FragmentTensor,
    Reconstruction,
    build_tensor,
    contract_operator,
    contract_tensors,
    operator_tensor,
    term_count,
)
from .simulator import (
    ObservableSpec,
    basis_rotation,
    exact_distribution,
    exact_expectation,
    sample,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "CutPoint", "Fragment", "Gate", "PauliOp",
    "bipartition", "golden_ansatz", "random_circuit", "uncut", "validate",
    "h", "x", "y", "z", "s", "sdg", "rx", "ry", "rz", "cnot", "cz", "unitary",
    "save", "load", "to_json", "from_json",
    "GoldcutError",
    "VariantKey", "VariantResult", "downstream_variants", "run_fragment",
    "upstream_variants",
    "GoldenReport", "detect_exact", "detect_statistical",
    "CostReport", "cost_report", "weighted_distance",
    "reconstruct",
    "FragmentTensor", "Reconstruction", "build_tensor",
    "contract_operator", "contract_tensors", "operator_tensor",
    "term_count",
    "ObservableSpec", "basis_rotation", "exact_distribution",
    "exact_expectation", "sample", "simulate",
    "__version__",
]
