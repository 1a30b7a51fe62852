"""Metrics collection, summary statistics, text tables and figure records."""
