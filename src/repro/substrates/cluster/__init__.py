"""Compute-node and cluster topology substrate."""
