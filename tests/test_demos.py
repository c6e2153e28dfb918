"""The demos that exercise the embedding search, the colorings, the
gadget sweep, forcing, the ordered cores, the lower-bound instances and
the regularity partitioner run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# each takes a few seconds at most: regularity_demo under 1 s,
# orderedhom_demo about 2 s and lowerbound_demo about 2.5 s
@pytest.mark.parametrize(
    "demo",
    [
        "colorability_demo",
        "forcing_demo",
        "hardness_demo",
        "kernel_demo",
        "lowerbound_demo",
        "orderedhom_demo",
        "regularity_demo",
    ],
)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
