"""Modified-cosine peak matching: one vectorised numpy kernel.

BACKEND names the kernel for run records; there is no other to select.
"""

from ._reference import score_modified_cosine

BACKEND = "numpy"

__all__ = ["BACKEND", "score_modified_cosine"]
