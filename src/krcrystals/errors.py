"""Exception types shared across the package."""


class KRCrystalError(Exception):
    """Base class for all errors raised by this package."""


class UnsupportedRankError(KRCrystalError, ValueError):
    """Rank outside the admissible range of the requested family."""


class UnsupportedFactorError(KRCrystalError, ValueError):
    """A tensor factor B^{r,s} that this package cannot construct."""


class ResourceLimitError(KRCrystalError, RuntimeError):
    """An enumeration exceeded its configured cap."""


class AmbiguousAnchorError(KRCrystalError, ValueError):
    """No unique weight-extremal element exists in a crystal graph."""


class NonDominantWeightError(KRCrystalError, ValueError):
    """A weight that was required to be dominant is not."""


class LevelBoundError(KRCrystalError, ValueError):
    """A tensor factor whose level exceeds the requested bound."""


class MaxWeightMismatchError(KRCrystalError, ValueError):
    """Two tensor products that were required to share their maximal weight."""


class InvariantError(KRCrystalError):
    """A construction broke an invariant it is required to keep."""
