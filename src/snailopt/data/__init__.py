"""Bundled static datasets (published tables, output schema docs); see :func:`load`."""

import json
from importlib import resources


def load(name: str) -> dict:
    """Parse the bundled JSON file ``name``, e.g. ``"published_means.json"``."""
    return json.loads(resources.files(__name__).joinpath(name).read_text())
