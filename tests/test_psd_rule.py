"""The PSD floor is spelled once, in ``matcore``, so a copy elsewhere cannot drift from it."""

from pathlib import Path

import pytest

import opmono

SOURCES = sorted(Path(opmono.__file__).parent.glob("*.py"))
SPELLINGS = ("tol.psd * (1", "psd * (1.0 +")


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "matcore"], ids=lambda p: p.stem)
def test_only_matcore_spells_the_psd_floor(path):
    text = path.read_text()
    assert not [s for s in SPELLINGS if s in text], "use matcore.psd_floor or matcore.require_psd"


def test_matcore_spells_it():
    text = (Path(opmono.__file__).parent / "matcore.py").read_text()
    assert any(s in text for s in SPELLINGS)
