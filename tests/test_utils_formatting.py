"""Table-formatting tests."""

import pytest

from repro.utils.formatting import format_row, format_table


class TestFormatRow:
    def test_right_aligns_numbers(self):
        row = format_row([3.14159, 42], [10, 5])
        assert row.endswith("42")
        assert "3.142" in row

    def test_left_aligns_text(self):
        row = format_row(["abc"], [6])
        assert row.startswith("abc")
        assert len(row) == 6


class TestFormatTable:
    def test_includes_headers_and_rows(self):
        text = format_table(["name", "value"], [["a", 1], ["b", 2]])
        assert "name" in text
        assert "value" in text
        assert "a" in text and "b" in text

    def test_separator_line_present(self):
        text = format_table(["h"], [["x"]])
        assert "-" in text.splitlines()[1]

    def test_title_is_first_line(self):
        text = format_table(["h"], [["x"]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_wide_cell_expands_column(self):
        text = format_table(["h"], [["a-very-long-cell-value"]])
        header_line = text.splitlines()[0]
        assert len(header_line) >= len("a-very-long-cell-value")

    def test_floats_rendered_4_sig_figs(self):
        text = format_table(["v"], [[0.123456]])
        assert "0.1235" in text

    def test_empty_rows_ok(self):
        text = format_table(["a", "b"], [])
        assert "a" in text
