"""Exception types shared across the package.

The CLI maps :class:`ValidationError` to exit code 1 and
:class:`NumericalError` (and subclasses) to exit code 2.
"""


class ValidationError(ValueError):
    """Input fails a structural or physical precondition.

    ``name`` is set when the message begins with the name of the one value
    at fault, as its reader knows it; :meth:`renamed` then restates the
    message under another name, such as the config key the value came from.
    """

    def __init__(self, message, name=None):
        super().__init__(message)
        self.name = name

    def renamed(self, name):
        return ValidationError(name + str(self)[len(self.name):], name)


class NumericalError(RuntimeError):
    """A computation could not produce a trustworthy result."""


class DegenerateMidgapError(NumericalError):
    """Zero-energy subspace cannot be split into chiral partners."""

    def __init__(self, indices, message=None):
        self.indices = tuple(int(i) for i in indices)
        if message is None:
            message = (
                "ambiguous zero-energy eigenvalues at indices "
                f"{self.indices}; cannot assign spectral halves"
            )
        super().__init__(message)


class GapClosingError(NumericalError):
    """Winding number requested at a gap closing (v == w)."""


class FitUnsupportedError(NumericalError):
    """State profile does not support the requested fit."""


class ExtrapolationError(ValidationError):
    """Table lookup outside the sampled voltage range."""
