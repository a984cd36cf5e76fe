"""The threaded engine's former names, kept for existing imports.

The threaded engine is now ``Config.threads`` of the one engine in
:mod:`commdet.louvain`: ``ParallelConfig`` is ``Config``,
``parallel_louvain`` is ``louvain`` and ``sweep_threads`` is
``louvain.sweep_threads``.  This module defines nothing of its own.
"""

from .louvain import Config as ParallelConfig
from .louvain import louvain as parallel_louvain
from .louvain import sweep_threads

__all__ = ["ParallelConfig", "parallel_louvain", "sweep_threads"]
