"""CWL runners: the cwltool-like reference runner and the Toil-like runner,
registered as the ``reference`` and ``toil`` engines of :mod:`repro.api`."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cwl.runners.base import BaseRunner
    from repro.cwl.runners.reference import ReferenceRunner
    from repro.cwl.runners.toil.runner import ToilStyleRunner

# The reference runner must not import the Toil-like runner's job store, batch
# systems and the cluster simulator behind them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "BaseRunner": "repro.cwl.runners.base",
    "ReferenceRunner": "repro.cwl.runners.reference",
    "ToilStyleRunner": "repro.cwl.runners.toil.runner",
})

__all__ = ["BaseRunner", "ReferenceRunner", "ToilStyleRunner"]
