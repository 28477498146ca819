"""Spectrum embedding models for tandem mass spectrometry.

Importing the package loads none of its submodules, so the CLI entry
point stays free of numpy until a command actually runs; this lets the
CLI pin BLAS to one thread per encoder worker first.
"""

__version__ = "0.1.0"
