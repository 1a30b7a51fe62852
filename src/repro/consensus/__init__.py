"""Shared Generalized-Consensus abstractions.

These are the pieces every protocol in the repository (CAESAR and all four
baselines) builds on: the command model and its conflict relation, logical
timestamps, ballots, quorum-size math, and the replica/decision interfaces.
"""
