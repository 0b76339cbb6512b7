"""Experiment-report rendering tests."""

from repro.core.report import ExperimentReport


def make_report():
    return ExperimentReport(
        experiment_id="figX",
        title="Test figure",
        headers=["model", "value"],
        rows=[["OPT-13B", 1.5], ["OPT-66B", 3.25]],
        notes=["paper: something", "measured: something else"],
    )


class TestRender:
    def test_contains_id_and_title(self):
        text = make_report().render()
        assert "[figX]" in text
        assert "Test figure" in text

    def test_contains_rows(self):
        text = make_report().render()
        assert "OPT-13B" in text and "3.25" in text

    def test_notes_prefixed(self):
        text = make_report().render()
        assert "note: paper: something" in text

    def test_no_notes_ok(self):
        report = ExperimentReport("x", "t", ["h"], [["v"]])
        assert "note:" not in report.render()


class TestMarkdown:
    def test_markdown_table_structure(self):
        md = make_report().to_markdown()
        lines = md.splitlines()
        assert lines[0].startswith("### figX")
        assert "| model | value |" in md
        assert "|---|---|" in md

    def test_markdown_notes_as_bullets(self):
        md = make_report().to_markdown()
        assert "- paper: something" in md
