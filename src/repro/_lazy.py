"""Lazy package surfaces (PEP 562).

A package ``__init__`` that re-exports names from its submodules makes every
importer of *any* submodule pay for *all* of them: ``python3 -m
repro.imaging.cli`` runs ``repro/__init__.py`` first, and with eager
re-exports that loaded the Parsl substrate, the CWL stack and PyYAML before
resizing one PNG.  :func:`lazy_exports` keeps the public names and drops the
cost: a package declares ``name -> defining module`` once and gets the module
``__getattr__`` / ``__dir__`` pair that imports a module the first time one of
its names is asked for::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "CWLApp": "repro.core.cwl_app",    # an attribute of that module
        "api": "repro.api",                # own submodule: the module itself
    })

Static tools do not run ``__getattr__``; packages pair the table with the same
imports under ``if TYPE_CHECKING:``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package`` serving ``exports`` on demand.

    A name mapped to ``<package>.<name>`` is that submodule; any other name is
    an attribute of the module it is mapped to.  A resolved value is stored in
    the package namespace, so ``__getattr__`` runs once per name.
    """

    def __getattr__(name: str) -> Any:
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(target)
        value = module if target == f"{package}.{name}" else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
