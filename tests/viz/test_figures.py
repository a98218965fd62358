"""Tests for the per-experiment SVG renderers."""

import xml.dom.minidom

import pytest

from repro.config import SMOKE
from repro.experiments import fig3, fig7, fig8
from repro.viz.figures import RENDERERS, render
from repro.engine import RunContext
from tests.conftest import TINY


def parse(svg: str):
    return xml.dom.minidom.parseString(svg)


class TestRenderers:
    def test_unrenderable_returns_none(self):
        assert render("table1", object()) is None

    def test_renderer_registry_ids(self):
        assert set(RENDERERS) == {
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "table3", "table4",
        }

    def test_fig7_valid(self):
        result = fig7.run(RunContext.default(scale=SMOKE, seed=1))
        svg = render("fig7", result)
        parse(svg)
        assert "Figure 7" in svg
        assert svg.count("polyline") >= 6  # ideal + observed per timer

    def test_fig8_valid(self):
        result = fig8.run(RunContext.default(scale=SMOKE, seed=1), n_periods=200)
        svg = render("fig8", result)
        parse(svg)
        assert "Randomized" in svg

    def test_fig3_valid(self):
        result = fig3.run(RunContext.default(scale=TINY, seed=1))
        svg = render("fig3", result)
        parse(svg)
        assert "nytimes.com" in svg
        assert svg.count("rgb(") > 100  # heat cells

    def test_fig4_valid(self, fig4_result):
        svg = render("fig4", fig4_result)
        parse(svg)
        assert "weather.com" in svg

    def test_fig5_valid(self):
        from repro.experiments import fig5

        result = fig5.run(RunContext.default(scale=TINY.with_(trace_seconds=3.0), seed=2))
        svg = render("fig5", result)
        parse(svg)
        assert "Softirq" in svg and "Resched" in svg

    def test_fig6_valid(self, fig6_result):
        svg = render("fig6", fig6_result)
        parse(svg)
        assert "timer" in svg

    def test_table3_valid(self):
        from repro.experiments import table3

        result = table3.run(RunContext.default(scale=TINY, seed=2))
        svg = render("table3", result)
        parse(svg)
        assert "isolation" in svg

    def test_table4_valid(self):
        from repro.experiments import table4

        result = table4.run(RunContext.default(scale=TINY, seed=2))
        svg = render("table4", result)
        parse(svg)
        assert "timer defenses" in svg
