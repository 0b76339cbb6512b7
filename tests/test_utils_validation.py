"""Validation-helper tests."""

import pytest

from repro.utils.validation import (
    require_in,
    require_non_negative,
    require_positive,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(1.5, "x") == 1.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            require_positive(0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_positive(-3, "x")

    def test_error_names_argument(self):
        with pytest.raises(ValueError, match="batch_size"):
            require_positive(0, "batch_size")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0, "x") == 0

    def test_accepts_positive(self):
        assert require_non_negative(7, "x") == 7

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            require_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="x must be >= 0, got nan"):
            require_non_negative(float("nan"), "x")


class TestRequireIn:
    def test_accepts_member(self):
        assert require_in("a", {"a", "b"}, "x") == "a"

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="must be one of"):
            require_in("c", {"a", "b"}, "x")

    def test_works_with_tuples(self):
        assert require_in(2, (1, 2, 3), "x") == 2
