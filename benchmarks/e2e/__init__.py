"""End-to-end benchmark: one update's life and one request's life, on the
wall clock and the sim clock, with a per-layer budget.  See README.md."""
