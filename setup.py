"""Setup shim: ``pip install -e .`` without the ``wheel`` package.

``pyproject.toml`` holds all the metadata. This file stays because a
PEP 660 editable install needs ``wheel``, and hosts like the one this repo
is developed on (setuptools 65.5, no ``wheel``, no network) have none:
with a ``setup.py`` present pip falls back to the legacy ``develop`` path.
"""

from setuptools import setup

setup()
