"""Numeric column backend: stdlib only.

Every numeric column in the package (``TupleBlock`` costs and birth
times) is a stdlib ``array('d')``, and every reduction accumulates left
to right in plain Python floats, so results are bit-identical on every
machine. The control plane's inputs are small (1001-point rate tables,
a handful of PAVA points, at most 64 connections), so a vectorized
backend costs about as much in conversion as it saves.

``HAVE_NUMPY`` stays, always ``False``, for tools that record which
backend produced a measurement.
"""

from __future__ import annotations

#: Whether a vectorized column backend is in use: always ``False``.
HAVE_NUMPY = False
