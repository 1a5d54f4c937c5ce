"""Binds the package's one kernel module as ``kernels``.

Every numeric consumer calls the kernels through this binding, so the
inner loops live in a single place (``_pykernels``).
"""

from . import _pykernels as kernels


def backend_name() -> str:
    """Name of the kernel implementation: "python"."""
    return kernels.NAME
