"""NumPy, imported on first use, so that ``import regcoulomb``, the figure
table and the scalar routes other than quadrature do not load it.

``np`` stands for the ``numpy`` module.  The first attribute read on it
imports NumPy, copies NumPy's namespace into it and makes it a plain module,
so later reads cost what reads of ``numpy`` cost.  Without NumPy installed,
importing this module raises :class:`ImportError`, as ``import numpy`` would.

Threads: the import and the copy run under a lock.  A thread that reads
``np`` meanwhile finds a name already copied from the fully imported NumPy,
or misses it and waits on the lock; none sees a partly initialised NumPy.
"""
import importlib.util
import threading
import types

if importlib.util.find_spec("numpy") is None:
    raise ModuleNotFoundError("No module named 'numpy'", name="numpy")


class _NumPy(types.ModuleType):
    _lock = threading.Lock()

    def __getattr__(self, name: str):
        with self._lock:
            if type(self) is _NumPy:  # the first read: import, copy, stop intercepting
                import numpy

                vars(self).update(vars(numpy))
                self.__class__ = types.ModuleType
        return getattr(self, name)


np = _NumPy("numpy")
