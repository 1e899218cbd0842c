"""Content hashing helpers.

Used by:

* the content-addressed job cache (:mod:`repro.cwl.jobcache`: job keys and
  file-content digests),
* CWL ``File`` objects (``checksum`` field, ``sha1$...`` per the CWL spec),
* the Toil-like job store (content-addressed file copies).
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
from typing import Any, Union

PathLike = Union[str, os.PathLike]

_CHUNK = 1 << 20


def hash_bytes(data: bytes, algorithm: str = "sha1") -> str:
    """Return ``<algorithm>$<hexdigest>`` for ``data`` (CWL checksum format)."""
    digest = hashlib.new(algorithm)
    digest.update(data)
    return f"{algorithm}${digest.hexdigest()}"


def hash_file(path: PathLike, algorithm: str = "sha1") -> str:
    """Return the CWL-style checksum of the file at ``path``."""
    digest = hashlib.new(algorithm)
    with open(os.fspath(path), "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return f"{algorithm}${digest.hexdigest()}"


def hash_obj(obj: Any, algorithm: str = "md5") -> str:
    """Return a stable hex digest of an arbitrary picklable Python object.

    The object is first converted to a canonical representation: dictionaries
    are replaced by sorted item tuples recursively so that key insertion order
    does not affect the digest.  Unpicklable leaves fall back to ``repr``.

    The digest is a function of *values* only.  Pickle's memo is switched off
    (``Pickler.fast``): with it on, the second occurrence of an object pickles
    as a back-reference, so ``(a, a)`` and ``(a, b)`` hashed differently for
    equal strings ``a is not b`` and a job key depended on which of its parts
    happened to share an object.  Digests therefore differ from those
    computed before the memo was switched off.
    """

    def canonical(value: Any) -> Any:
        if isinstance(value, dict):
            return tuple(sorted((k, canonical(v)) for k, v in value.items()))
        if isinstance(value, (list, tuple)):
            return tuple(canonical(v) for v in value)
        if isinstance(value, set):
            return tuple(sorted(canonical(v) for v in value))
        return value

    try:
        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=4)
        pickler.fast = True  # no memo: equal values pickle equally
        pickler.dump(canonical(obj))
        payload = buffer.getvalue()
    except Exception:
        payload = repr(obj).encode("utf-8")
    return hashlib.new(algorithm, payload).hexdigest()
