"""Experiment harness: cluster construction, workload drivers and figure reproduction."""
