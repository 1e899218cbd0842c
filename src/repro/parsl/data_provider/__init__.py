"""Data management for the Parsl-like library: the ``File`` abstraction."""

from repro.parsl.data_provider.files import File

__all__ = ["File"]
