"""Small argument-validation helpers used across the library.

Raising early with a clear message is preferred over letting a bad value
propagate into a physically meaningless simulation result.
"""

from typing import Any, Collection


def require_positive(value: float, name: str) -> float:
    """Return *value* if it is strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return *value* if it is >= 0 (so not NaN), else raise ``ValueError``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in(value: Any, allowed: Collection[Any], name: str) -> Any:
    """Return *value* if it is a member of *allowed*, else raise ``ValueError``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {sorted(map(str, allowed))}, got {value!r}")
    return value
