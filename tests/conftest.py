"""Puts ``scripts/`` on the import path, so tests call the data scripts' own functions."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
