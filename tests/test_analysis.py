"""Reporting tests."""

from repro.analysis.reporting import (
    PAPER_FIG8,
    PAPER_FIG10,
    PAPER_TABLE1,
    format_fig8_table,
    format_fig9_table,
    format_fig10_table,
    format_table1,
)


class TestPaperConstants:
    def test_fig8_baseline_is_slowest_everywhere(self):
        for app, row in PAPER_FIG8.items():
            assert row["h5py-baseline"] == max(row.values()), app

    def test_fig8_gpu_sync_is_fastest_everywhere(self):
        for app, row in PAPER_FIG8.items():
            assert row["gpu-sync"] == min(row.values()), app

    def test_fig10_adaptive_best_everywhere(self):
        for app, row in PAPER_FIG10.items():
            assert row["adaptive"] <= row["fixed"] <= row["baseline"], app

    def test_table1_adaptive_fewer_ckpts_than_fixed(self):
        for app, row in PAPER_TABLE1.items():
            assert row["adaptive"]["ckpts"] <= row["fixed"]["ckpts"], app


class TestFormatters:
    def test_fig8_table_renders(self):
        measured = {k: v * 1.1 for k, v in PAPER_FIG8["tc1"].items()}
        text = format_fig8_table("tc1", measured)
        assert "h5py-baseline" in text
        assert "speedup" in text
        assert "Figure 8" in text

    def test_fig9_table_renders(self):
        text = format_fig9_table(
            {
                "gpu": {"cil": 100.0, "overhead": 1.0},
                "host": {"cil": 110.0, "overhead": 7.0},
                "pfs": {"cil": 130.0, "overhead": 60.0},
            }
        )
        assert "Figure 9" in text and "pfs" in text

    def test_fig10_table_renders(self):
        text = format_fig10_table(
            "tc1", {"baseline": 100.0, "fixed": 95.0, "adaptive": 90.0}
        )
        assert "adaptive" in text and "32800" in text.replace(",", "")

    def test_table1_renders(self):
        text = format_table1(
            {
                "tc1": {
                    "baseline": {"ckpts": 13, "overhead": 1.0},
                    "fixed": {"ckpts": 50, "overhead": 4.0},
                    "adaptive": {"ckpts": 20, "overhead": 1.5},
                }
            }
        )
        assert "Table 1" in text and "tc1" in text

    def test_unknown_app_still_renders(self):
        text = format_fig8_table("mystery", {"gpu-sync": 0.1})
        assert "gpu-sync" in text
