"""Result analysis: paper-style reporting, latency harness, timelines, export."""
