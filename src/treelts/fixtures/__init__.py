"""Bundled example networks.

``gx`` is the running three-component example: a five-state root with two
children, one of which only resets.  ``gy`` shows that the reduction keeps
reachability but not invariance: EG p holds on its full product and fails
on the reduced system.
"""

from __future__ import annotations

from importlib.resources import files
from pathlib import Path


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture, e.g. ``gx.json``."""
    return Path(str(files(__package__).joinpath(name)))


def gx_path() -> Path:
    return fixture_path("gx.json")


def gy_path() -> Path:
    return fixture_path("gy.json")
