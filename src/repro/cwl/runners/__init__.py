"""CWL runners: the cwltool-like reference runner and the Toil-like runner."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.cwl.runners.base import BaseRunner, RunnerResult
    from repro.cwl.runners.reference import ReferenceRunner
    from repro.cwl.runners.toil.runner import ToilStyleRunner

# The reference runner must not import the Toil-like runner's job store, batch
# systems and the cluster simulator behind them.
__getattr__, __dir__ = lazy_exports(__name__, {
    "BaseRunner": "repro.cwl.runners.base",
    "ReferenceRunner": "repro.cwl.runners.reference",
    "RunnerResult": "repro.cwl.runners.base",
    "ToilStyleRunner": "repro.cwl.runners.toil.runner",
})

__all__ = ["BaseRunner", "ReferenceRunner", "RunnerResult", "ToilStyleRunner"]
