"""Legacy setuptools entry point.

All project metadata lives in ``pyproject.toml``; this file only exists so
the legacy development-install path has something to execute.  With
``setuptools`` and ``wheel`` installed::

    pip install -e . --no-build-isolation --no-use-pep517

and where ``wheel`` is missing (pip refuses ``--no-use-pep517`` without it,
and cannot build a PEP 660 editable wheel either), the same install::

    python setup.py develop --no-deps
"""

from setuptools import setup

setup()
