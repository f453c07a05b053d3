"""Result analysis: paper-style reporting, latency harness, timelines, export."""

from repro.analysis.reporting import (
    format_fig8_table,
    format_fig9_table,
    format_fig10_table,
    format_table1,
)

__all__ = [
    "format_fig8_table",
    "format_fig9_table",
    "format_fig10_table",
    "format_table1",
]
