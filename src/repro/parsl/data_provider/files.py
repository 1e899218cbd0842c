"""The Parsl ``File`` abstraction.

A :class:`File` names a piece of data independently of where an app executes.
In full Parsl, Files can carry remote schemes (``globus://``, ``https://`` …);
here only local ``file`` paths can be opened — getting a file to where a job
runs is the CWL layer's job (``stage_file``) — but the URL parsing, scheme
handling and equality semantics are kept so that the CWL bridge (which converts
CWL ``File`` inputs into Parsl Files, §III-A of the paper) behaves like the
original.
"""

from __future__ import annotations

import os
from urllib.parse import urlparse


class File:
    """A descriptor for a file used as an app input or output.

    Parameters
    ----------
    url:
        Either a plain filesystem path or a URL with a scheme
        (``file://host/path``, ``https://...``).  Plain paths are treated as the
        ``file`` scheme.
    """

    def __init__(self, url: str) -> None:
        if isinstance(url, File):  # idempotent construction
            url = url.url
        if not isinstance(url, (str, os.PathLike)):
            raise TypeError(f"File url must be a string or path, got {type(url).__name__}")
        self.url = os.fspath(url)
        parsed = urlparse(self.url)
        self.scheme = parsed.scheme if parsed.scheme else "file"
        self.netloc = parsed.netloc
        self.path = parsed.path if parsed.scheme else self.url

    @property
    def filepath(self) -> str:
        """The path apps should use to access the file on the execution side."""
        if self.scheme in ("file", ""):
            return self.path
        raise ValueError(
            f"File {self.url!r} has scheme {self.scheme!r}; only local files can be opened"
        )

    @property
    def filename(self) -> str:
        """Base name of the file."""
        return os.path.basename(self.path)

    def is_remote(self) -> bool:
        """Whether this file lives somewhere other than the local filesystem."""
        return self.scheme not in ("file", "")

    def exists(self) -> bool:
        """Whether the file currently exists on the local filesystem."""
        try:
            return os.path.exists(self.filepath)
        except ValueError:
            return False

    def size(self) -> int:
        """Size in bytes of the local file."""
        return os.stat(self.filepath).st_size

    def __fspath__(self) -> str:
        return self.filepath

    def __str__(self) -> str:
        return self.filepath if self.scheme == "file" else self.url

    def __repr__(self) -> str:
        return f"<File {self.url!r} scheme={self.scheme}>"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, File):
            return NotImplemented
        return self.url == other.url

    def __hash__(self) -> int:
        return hash(("repro.parsl.File", self.url))
