"""Exception types shared across the package."""


class GoldcutError(Exception):
    """Base class for all goldcut errors."""


class TooWide(GoldcutError):
    """Circuit exceeds the simulable width cap."""


class SupportMismatch(GoldcutError):
    """Observable support does not fit the state or fragment it is applied to."""


class IdentityBasisRequested(GoldcutError):
    """Measurement-basis rotation requested for the identity operator."""


class NotBipartite(GoldcutError):
    """Removing the cut wires does not leave exactly two components."""


class CyclicCut(GoldcutError):
    """Cut orientation is inconsistent: the downstream side feeds back upstream."""


class AnsatzNotGolden(GoldcutError):
    """Golden-ansatz generation failed its self-certification after retries."""


class MissingVariant(GoldcutError):
    """A variant result required by the declared neglected set is absent."""


class ArityMismatch(GoldcutError):
    """Fragment tensors disagree on cut arity or identity."""


class WrongSide(GoldcutError):
    """A downstream tensor was passed where an upstream one is required."""


class EmptySupport(GoldcutError):
    """The reference distribution has no positive-probability outcomes."""
