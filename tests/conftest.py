"""Shared test fixtures: the directory of the bundled germ files."""

from pathlib import Path

import pytest

GERMS = Path(__file__).resolve().parents[1] / "germs"


@pytest.fixture
def germs_dir():
    """Directory holding the bundled .germ fixture files."""
    return GERMS
