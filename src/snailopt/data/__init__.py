"""The one JSON reader (:func:`read_json`) and the bundled static datasets
(published tables, output schema docs; see :func:`load`)."""

import json
from pathlib import Path


def read_json(path, schema: str | None = None) -> dict:
    """The JSON object in ``path``, tagged ``schema`` when one is given.

    Raises ``ValueError`` naming ``path`` when its text is not JSON or nests
    too deeply to parse, when it is not an object, or when ``schema`` is
    given and its ``"schema"`` tag is missing or another; an ``OSError``
    from reading it passes through."""
    try:
        d = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: nested too deeply") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(d, dict):
        raise ValueError(f"{path}: not a JSON object")
    if schema is not None and d.get("schema") != schema:
        raise ValueError(f"{path}: not a {schema} file")
    return d


def load(name: str) -> dict:
    """Parse the bundled JSON file ``name``, e.g. ``"published_means.json"``."""
    return read_json(Path(__file__).with_name(name))
