"""Exception types shared across the library."""

from contextlib import contextmanager

import numpy as np


class AvFusionError(Exception):
    """Base class for all library errors."""


class ShapeError(AvFusionError, ValueError):
    """Operands have incompatible dimensions."""


class DegenerateInputError(AvFusionError, ValueError):
    """Input is structurally valid but degenerate (zero vector, empty list, ...)."""


class DegenerateBatchError(AvFusionError, ValueError):
    """A train-mode batch is too small for batch statistics."""


class ConfigurationError(AvFusionError, ValueError):
    """A configuration value is out of its allowed range."""


class LabelError(AvFusionError, ValueError):
    """A class label is outside the valid range."""


class ConsistencyError(AvFusionError, ValueError):
    """A cache or state object does not match the model it is used with."""


class PersistenceError(AvFusionError, ValueError):
    """A file could not be parsed or does not match the expected format."""


# The most float64 values one array may hold, 2**31 (16 GiB).  A request for
# a larger one is a configuration error, raised before anything is allocated.
MAX_ARRAY_ELEMENTS = 2**31


def check_array_size(what, n_elements):
    if n_elements > MAX_ARRAY_ELEMENTS:
        raise ConfigurationError(
            f"{what} would hold {n_elements} values, more than {MAX_ARRAY_ELEMENTS}")


@contextmanager
def float_errors_as_degenerate(what, data=None):
    """Runs the block with numpy overflow, 0/0 and x/0 raising, and reports
    them as DegenerateInputError, before they become numpy warnings or
    non-finite results.  `data` names the input whose size alone decides the
    block's memory; a MemoryError is then a DegenerateInputError too."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise DegenerateInputError(f"non-finite values in {what}: {exc}") from exc
    except MemoryError as exc:
        if data is None:
            raise
        raise DegenerateInputError(
            f"{data} exceed this machine's memory in {what}: {exc}") from exc
