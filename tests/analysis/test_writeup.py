"""Tests for the EXPERIMENTS.md generator."""

from pathlib import Path

import pytest

from repro.analysis.writeup import generate
from repro.cli import main

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def report():
    return generate()


def test_every_figure_and_table_sectioned(report):
    for section in (
        "Figure 2a", "Figure 2b", "Figure 8", "Figure 9", "Figure 10",
        "Figure 11a", "Figure 11b/c", "Figure 12", "Figure 13",
        "Figure 14 (cold_cpu)", "Figure 14 (warm_cpu)",
        "Figure 14 (cold_bf1)", "Figure 14 (cold_bf2)", "Figure 14e",
        "Figure 14f", "Figure 14g", "Figure 14h", "Table 4", "Table 5",
        "Figure 15", "Ablations", "Conformance scorecard",
    ):
        assert section in report, f"missing section: {section}"


def test_report_contains_paper_anchor_numbers(report):
    for anchor in ("1512", "85.55", "47.25", "30.05", "8.40", "119,516", "38254"):
        assert anchor in report, f"missing anchor: {anchor}"


def test_scorecard_embedded_and_green(report):
    assert "19/19 claims hold" in report


def test_report_is_deterministic():
    assert generate() == generate()


def test_report_is_valid_markdown_tables(report):
    # Every table row line has balanced pipes.
    for line in report.splitlines():
        if line.startswith("|"):
            assert line.endswith("|"), line


def test_checked_in_experiments_md_matches_repro_report(capsys):
    # The checked-in record must be exactly what ``repro report`` prints
    # now, so a change that moves any paper number shows up here.
    assert main(["report"]) == 0
    assert capsys.readouterr().out == EXPERIMENTS_MD.read_text()
