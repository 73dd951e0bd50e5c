"""Exception types shared across the pipeline, and the stages' int check."""


class HotmineError(Exception):
    """Base class for all package errors."""


class InputError(HotmineError, ValueError):
    """Bad input data or parameters (CLI exit code 1)."""


class ConvergenceError(HotmineError, RuntimeError):
    """An iterative solver failed to converge (CLI exit code 2)."""


def check_int(name: str, value: object, least: int) -> None:
    """Refuse a value that is not an int >= least; a bool is no int here."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError(f"{name} must be an int >= {least}, got {value!r}")
