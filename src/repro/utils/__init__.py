"""Shared low-level helpers used across the repro substrates."""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.utils.hashing import hash_bytes, hash_file, hash_obj
    from repro.utils.ids import RunIdGenerator
    from repro.utils.yamlio import dump_yaml, load_yaml, load_yaml_file

# Every ``repro.utils.<module>`` import runs this file; it must not pull in
# PyYAML for a caller that wanted ``repro.utils.ids``.
__getattr__, __dir__ = lazy_exports(__name__, {
    "RunIdGenerator": "repro.utils.ids",
    "dump_yaml": "repro.utils.yamlio",
    "hash_bytes": "repro.utils.hashing",
    "hash_file": "repro.utils.hashing",
    "hash_obj": "repro.utils.hashing",
    "load_yaml": "repro.utils.yamlio",
    "load_yaml_file": "repro.utils.yamlio",
})

__all__ = [
    "RunIdGenerator",
    "dump_yaml",
    "hash_bytes",
    "hash_file",
    "hash_obj",
    "load_yaml",
    "load_yaml_file",
]
