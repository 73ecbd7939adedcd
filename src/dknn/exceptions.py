"""Error taxonomy shared across the package.

The CLI maps these onto process exit codes: ValidationError -> 2,
ArtifactMismatchError -> 3, CorruptArtifactError -> 4.
"""


class DknnError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DknnError, ValueError):
    """Bad user input: malformed config, missing file, out-of-range value."""


class ArtifactMismatchError(DknnError):
    """Artifacts that must belong together do not (e.g. stale store fingerprint)."""


class CorruptArtifactError(DknnError):
    """An artifact failed its load-time checks: magic, version, length,
    finite weights, label range."""


class NonFiniteError(DknnError):
    """A loss or gradient became NaN/Inf during training."""
