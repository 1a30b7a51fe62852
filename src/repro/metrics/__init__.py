"""Metrics collection, summary statistics, and the persistent results store."""
