"""Exception types shared across the pipeline, and the one int rule that every
int parameter goes through: a Python or numpy int, never a bool or a float."""

from operator import index

import numpy as np


class HotmineError(Exception):
    """Base class for all package errors."""


class InputError(HotmineError, ValueError):
    """Bad input data or parameters (CLI exit code 1)."""


class ConvergenceError(HotmineError, RuntimeError):
    """An iterative solver failed to converge (CLI exit code 2)."""


def check_int(name: str, value: object, least: int) -> int:
    """value as a Python int, refused unless it is an int >= least."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise InputError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise InputError(f"{name} must be >= {least}, got {value!r}")
    return index(value)
