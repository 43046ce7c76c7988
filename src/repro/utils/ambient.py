"""Per-thread scoped settings with a process-wide default.

Several layers let a caller change a setting for everything underneath a
block without threading a parameter through the layers in between:
gradient recording (:func:`repro.tensor.no_grad`), the balance-system
backend (:func:`repro.engine.default_backend`) and the solver caches
(:func:`repro.flows.lp.use_lp_cache`,
:func:`repro.engine.backend.use_factorisation_cache`).  Each is one
:class:`Ambient`: a binding made in one thread is never seen by another,
so a service thread evaluating under ``no_grad`` cannot switch off
gradient recording for a training run on the next thread.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator


class Ambient(threading.local):
    """A value each thread reads as :attr:`value` and rebinds with :meth:`bind`.

    Every thread starts from ``default``; :meth:`bind` replaces the calling
    thread's value for the duration of a ``with`` block and restores the
    previous one on exit, exceptions included.
    """

    def __init__(self, default: Any):
        # threading.local re-runs __init__ with the same arguments the first
        # time each thread touches the instance.
        self.value = default

    @contextmanager
    def bind(self, value: Any) -> Iterator[Any]:
        """Make ``value`` this thread's value inside the block."""
        previous = self.value
        self.value = value
        try:
            yield value
        finally:
            self.value = previous


__all__ = ["Ambient"]
