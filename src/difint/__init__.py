"""Identity-preserving rational approximation of fractional differintegrators.

Builds band-limited zero-pole-gain approximants of s**(-alpha) and s**alpha
whose compositions collapse exactly to 1/s, 1 and s, quantifies their
frequency- and time-domain accuracy against classic recursive designs, and
exports partial-fraction and passive RC realizations.

Importing the package loads none of its modules, so a command line call
loads only those it uses.  Each module, once imported, binds the names of
its ``__all__`` here.  Reading any other public name, or ``__all__``,
imports all of them.
"""

import sys
import types

__version__ = "0.1.0"

_MODULES = ("design", "discrete", "errors", "factored", "frequency", "identities", "realization")


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name in _MODULES:  # the import system binds each submodule it has loaded
            for public in value.__all__:
                super().__setattr__(public, getattr(value, public))


sys.modules[__name__].__class__ = _Package


def __getattr__(name):
    # A submodule name gets here only before its module is imported; the
    # AttributeError lets ``from difint import design`` import that one alone.
    if name == "__all__" or not (name.startswith("_") or name in (*_MODULES, "cli")):
        from importlib import import_module

        modules = [import_module(f"{__name__}.{short}") for short in _MODULES]
        globals()["__all__"] = [public for module in modules for public in module.__all__]
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
