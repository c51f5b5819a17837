"""The claims ledger: every banded claim holds, and EXPERIMENTS.md
embeds the table exactly as the model renders it."""

import pathlib
import re

import pytest

from repro.core.ledger import CLAIMS, check, in_band, render, residual

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BEGIN, END = "<!-- claims-ledger:begin -->", "<!-- claims-ledger:end -->"


@pytest.fixture(scope="module")
def results():
    return check()


@pytest.mark.parametrize("claim", [c for c in CLAIMS if c.band],
                         ids=lambda c: c.id)
def test_claim_in_band(results, claim):
    (result,) = [r for r in results if r.claim.id == claim.id]
    assert result.in_band, (
        f"{claim.id} ({claim.claim}): measured {result.measured}, "
        f"band {claim.band}")


def test_experiments_md_has_one_table_between_markers():
    text = EXPERIMENTS.read_text(encoding="utf-8")
    assert text.count(BEGIN) == 1 and text.count(END) == 1, (
        "EXPERIMENTS.md must hold each claims-ledger marker exactly once")
    assert text.index(BEGIN) < text.index(END)


def test_experiments_md_embeds_the_table(results):
    text = EXPERIMENTS.read_text(encoding="utf-8")
    embedded = text.partition(BEGIN)[2].partition(END)[0].strip()
    assert embedded == render(results), (
        "the claims table in EXPERIMENTS.md differs from the model.  If "
        "the change is meant, replace the lines between the "
        f"{BEGIN} and {END} markers with the output of "
        "`PYTHONPATH=src python -m repro regression`, and revisit the "
        "prose verdicts the changed rows touch.")


def test_ids_are_unique_and_name_a_figure():
    ids = [c.id for c in CLAIMS]
    assert len(set(ids)) == len(ids)
    assert all(re.fullmatch(r"fig[2-7][a-e]?", c.figure) for c in CLAIMS)


class TestInBand:
    @pytest.mark.parametrize("band,value,inside", [
        ("[0, 0]", 0, True), ("[0, 0]", 1, False),
        ("(0.8, 0.97]", 0.8, False), ("(0.8, 0.97]", 0.97, True),
        ("[4, 8]", 4, True), ("[4, 8]", 8, True), ("[4, 8]", 9, False),
        ("(-inf, 1)", 1.0, False), ("(-inf, 1)", -1e9, True),
        ("[1, inf)", 1, True), ("[1, inf)", 0, False)])
    def test_bracket_sets_strictness(self, band, value, inside):
        assert in_band(value, band) is inside

    def test_missing_value_is_never_in_band(self):
        assert in_band(None, "(-inf, inf)") is False

    @pytest.mark.parametrize("band", ["0, 1", "{0, 1}", "[0; 1]"])
    def test_malformed_band_raises(self, band):
        with pytest.raises(ValueError):
            in_band(0.5, band)


class TestResidual:
    def test_number(self):
        assert residual(5, 7) == -2

    @pytest.mark.parametrize("measured,expected", [
        (0.05, -0.05), (0.1, 0.0), (0.12, 0.0), (0.15, 0.0), (0.2, 0.05)])
    def test_range_counts_distance_outside(self, measured, expected):
        assert residual(measured, (0.1, 0.15)) == pytest.approx(expected)

    def test_blank_without_paper_value_or_measurement(self):
        assert residual(0.3, None) is None
        assert residual(None, 7) is None
