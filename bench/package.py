"""Load ``su2moduli`` from the checkout's ``src/`` directory, freshly.

Every benchmark round starts from newly executed modules, so module-level
caches (``appendix._GROUP_CACHE``, the ``lru_cache`` on ``delta_inband`` and
on the appendix helpers) start empty, as they do for one ``su2moduli`` CLI
call.  numpy stays imported; it is part of the cold set-up only.
"""
from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

MODULES = ("su2", "exact", "tolerances", "classify", "torus_one",
           "sphere_four", "torus_family", "orbit_lab", "appendix", "repfile")


class PackageMissing(RuntimeError):
    """The checkout holds no importable su2moduli sources."""


def load(root: str) -> SimpleNamespace:
    """Import every su2moduli module anew from ``<root>/src``."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "su2moduli", "__init__.py")):
        raise PackageMissing(f"no su2moduli sources under {src}")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "su2moduli" or m.startswith("su2moduli.")]:
        del sys.modules[name]
    pkg = importlib.import_module("su2moduli")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(src, "su2moduli"):
        raise PackageMissing(f"su2moduli imported from {pkg.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"su2moduli.{m}")
                              for m in MODULES})
