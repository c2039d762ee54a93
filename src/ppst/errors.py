"""Exception types shared across the package.

An error names the input it is about (file, file and line, config key or
item) in its message, which is all the CLI prints.
"""


class PpstError(Exception):
    """Base class for all package errors."""


class ConfigurationError(PpstError):
    """Invalid configuration value or incompatible component wiring."""


class InputError(PpstError):
    """Bad input data (unreadable image, empty text, ...)."""


class CompatibilityError(PpstError):
    """Artifacts that do not belong together, e.g. adapters trained against a different LM."""


class TrainingDiverged(PpstError):
    """A non-finite loss, or a weight that float32 cannot store: training aborted."""


class ScorerUnavailable(PpstError):
    """External scorer could not score: unreachable after retries, or a malformed reply."""
