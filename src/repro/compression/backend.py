"""The array library of the compression kernels, as a recordable name.

The kernels in :mod:`repro.compression.kernels` call numpy directly.  This
constant exists only for ``perfbench/run.py``, which records
``get_backend().name`` in the environment block of every result.
"""

from types import SimpleNamespace

_NUMPY = SimpleNamespace(name="numpy")


def get_backend() -> SimpleNamespace:
    """The array library the kernels run on: always numpy."""
    return _NUMPY
