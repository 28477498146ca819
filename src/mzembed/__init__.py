"""Spectrum embedding models for tandem mass spectrometry.

Submodules are loaded lazily so that importing the package (as the CLI
entry point does) stays free of numpy until a command actually runs;
this lets the CLI pin BLAS to one thread per encoder worker first.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": "mzembed.errors",
    "rng": "mzembed.rng",
    "tensor": "mzembed.tensor",
    "data": "mzembed.data",
    "embed": "mzembed.embed",
    "encoder": "mzembed.encoder",
    "kernels": "mzembed.kernels",
    "outputs": "mzembed.outputs",
    "search": "mzembed.search",
    "siamese": "mzembed.siamese",
    "training": "mzembed.training",
    "properties": "mzembed.properties",
    "cli": "mzembed.cli",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(_EXPORTS[name])
        globals()[name] = module
        return module
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
