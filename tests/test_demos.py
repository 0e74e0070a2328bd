"""Each demo runs as a script and prints exactly what it printed before.

The digests are sha256 of the demos' stdout; a change that alters what a
demo prints must update its digest here and say why.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "demo_agenda_power.py":
        "ab895e88f8385a77860db11c84da534c05d7efd4d43787aa1cca4411c2379857",
    "demo_divide_the_dollar.py":
        "dc5aa22378f8279e5740ce341407f7340fa5ec8d2f8f44ddac44e088e2ff5afd",
    "demo_grid_convergence.py":
        "32463f8108b6db88e04bf7591b27f0bc61f282f705bb9f8358f1d1a5338e6beb",
    "demo_horizons_and_commitment.py":
        "6900cd9e69ebd821394286d22e684f99fea9b3594b1de9db2ae1c23a0b48db16",
    "demo_spatial_geometry.py":
        "02cd5bdd291e287a5e7809e64ee72edb7f264d449f25fdf37cef7b971b580ef9",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_output_is_unchanged(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                         capture_output=True, timeout=120, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name]
