"""Subprocesses that run ``python -m hypam`` import the package from src/,
as the tests themselves do through pyproject's pytest ``pythonpath``."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
