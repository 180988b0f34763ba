"""Kernel execution mode, for tools that report it.

The kernels in :mod:`gaplab.kernels` always run as interpreted Python;
``perfbench/run.py`` records this flag in its environment block.
"""

JIT_ENABLED = False
