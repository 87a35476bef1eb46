"""Setuptools entry point.

The package has no hard dependencies beyond NumPy (SciPy is optional at
runtime, gated behind solver availability checks).
"""

from setuptools import setup

setup()
