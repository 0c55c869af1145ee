"""Tests for the figures-document generator."""

import pytest

from repro.bench.figures import (
    FIGURES,
    _markdown_table,
    generate_figures_document,
    main,
)


class TestMarkdownTable:
    def test_shape(self):
        table = _markdown_table(("a", "b"), [(1, 2.5), ("x", 0.000123)])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "0.000123" in lines[3]

    def test_empty_rows(self):
        table = _markdown_table(("only",), [])
        assert len(table.splitlines()) == 2


def _stub():
    return ("layout", "score"), [("balanced", 1.0), ("skewed", 2.5)]


class TestGeneration:
    def test_subset_document(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.08")
        from repro.bench import experiments

        subset = {
            "Fig. 4": experiments.fig4_allocation,
            "Stub": _stub,
        }
        document = generate_figures_document(subset)
        assert "# Regenerated figures" in document
        assert "## Fig. 4" in document
        assert "## Stub" in document
        assert "REPRO_SCALE=0.08" in document
        assert document.count("| range_size |") == 1

    def test_failure_isolated(self):
        def boom():
            raise RuntimeError("intentional")

        document = generate_figures_document({"Broken": boom, "Stub": _stub})
        assert "intentional" in document
        assert "| layout | score |" in document  # the next section still ran

    def test_registry_covers_every_paper_figure(self):
        joined = " ".join(FIGURES)
        for figure in ("Fig. 4", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8",
                       "Fig. 9", "Fig. 10", "Fig. 11", "§3"):
            assert figure in joined

    def test_main_writes_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SCALE", "0.08")
        import repro.bench.figures as figures_module

        monkeypatch.setattr(
            figures_module, "FIGURES",
            {"Fig. 4": figures_module.FIGURES["Fig. 4 — bits-allocation mechanisms"]},
        )
        path = str(tmp_path / "figures.md")
        assert main([path]) == 0
        with open(path) as handle:
            assert "# Regenerated figures" in handle.read()
        assert "wrote" in capsys.readouterr().out
