"""Exception and warning types shared across the package."""


class EspcError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(EspcError, ValueError):
    """Key-array construction received no keys."""


class NonFiniteKey(EspcError, ValueError):
    """A NaN or infinity showed up in float-mode keys."""


class StartOutOfRange(EspcError, IndexError):
    """Search start position lies outside [0, n]."""


class InvalidK(EspcError, ValueError):
    """Interval count must be a positive integer (and fan-out <= n)."""


class OutOfRange(EspcError, ValueError):
    """Query lies outside the key range covered by the index, or is NaN."""


class IndexMismatch(EspcError, ValueError):
    """Index was built over a different array than the one supplied."""


class InvalidPolicyParams(EspcError, ValueError):
    """Sizing policy is of an unknown kind, or is asked to size fewer than 2 keys."""


class SupportViolation(EspcError, ValueError):
    """Support bounds [a, b] do not cover the key range."""


class DegenerateIQR(EspcError, ValueError):
    """IQR and key range are both zero; no usable bin width exists."""


class InvalidWidth(EspcError, ValueError):
    """Histogram bin width is not positive, finite and wide enough for the keys."""


class InvalidParams(EspcError, ValueError):
    """Operation parameters are invalid for the given input."""


class InvalidM(EspcError, ValueError):
    """Subsample size must lie in [1, n]."""


class DegenerateRange(EspcError, ValueError):
    """All keys are equal; the range cannot be rescaled."""


class TruncatedFile(EspcError, ValueError):
    """File size disagrees with the key count in its header."""


class CountMismatch(EspcError, ValueError):
    """File header declares an unusable key count."""


class InvalidIndexFile(EspcError, ValueError):
    """Serialized index blob has a bad magic or inconsistent length."""


class DegenerateIqrWarning(UserWarning):
    """IQR was zero; the bin width fell back to range-based sizing."""


class UnsortedFileWarning(UserWarning):
    """Keys read from file were not sorted and have been sorted in memory."""
