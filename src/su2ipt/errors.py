"""Exception types shared across the package."""


class Su2IptError(Exception):
    """Base class for all package-specific errors."""


class SpinFormatError(Su2IptError, ValueError):
    """A spin string could not be parsed."""


class ParseError(Su2IptError, ValueError):
    """A command-line value could not be parsed; the message carries the
    offending token and its position."""


class InadmissibleTriple(Su2IptError, ValueError):
    """Three spins violate the triangle rule or parity."""


class InadmissibleLabel(Su2IptError, ValueError):
    """A bridge label has inadmissible paths or mismatched bridge spins."""


class InvalidStep(Su2IptError, ValueError):
    """A loop-resolution step is not defined (e.g. down from spin 0)."""


class SpinMismatch(Su2IptError, ValueError):
    """Contracted legs carry different spins."""


class BadBipartition(Su2IptError, ValueError):
    """A bipartition does not satisfy the required side sizes or indices."""


class ZeroTensor(Su2IptError, ValueError):
    """An operation requiring a nonzero tensor received the zero tensor."""


class NotInvariant(Su2IptError, ValueError):
    """A tensor required to be SU(2) invariant is not (within tolerance)."""


class CalibrationFailure(Su2IptError, RuntimeError):
    """Bridge states failed the exact or numeric theta-norm check."""


class CrossesBridge(Su2IptError, ValueError):
    """A swap marked trivial actually crosses the bipartition bridge."""


class ProjectionResidual(Su2IptError, RuntimeError):
    """A permuted basis state left the invariant span during projection."""


class LabelMismatch(Su2IptError, ValueError):
    """Coefficient labels do not match the equation system's labels."""


class EmptyInvariantSpace(Su2IptError, ValueError):
    """The invariant subspace for the given legs is zero-dimensional."""


class OddValence(Su2IptError, ValueError):
    """An even-valence operation received an odd leg count."""


class EvenValence(Su2IptError, ValueError):
    """An odd-valence operation received an even leg count."""
