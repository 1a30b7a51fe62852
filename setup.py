"""Packaging metadata for the CAESAR reproduction.

Kept as a plain ``setup.py`` (no build-system table) so ``pip install -e .``
works with the stock setuptools baked into minimal CI images.
"""
from setuptools import find_packages, setup

setup(
    name="caesar-repro",
    version="0.2.0",
    description="Reproduction of CAESAR (Speeding up Consensus by Chasing Fast "
                "Decisions, DSN 2017) on a deterministic simulated WAN substrate",
    author="caesar-repro contributors",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
