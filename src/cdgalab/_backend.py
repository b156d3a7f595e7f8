"""The arithmetic kernel the engine calls into.

There is one lane, the pure-Python ``_kernel_py``.  The engine reaches its
functions through ``kernel`` at call time, so a profiler or tracer can wrap
them in one place.
"""

from . import _kernel_py as kernel

__all__ = ["backend_name", "kernel"]


def backend_name() -> str:
    """Name of the arithmetic kernel in use; always "python"."""
    return "python"
