"""fig03 is a pure function of its profiles, whatever ``PYTHONHASHSEED``.

Each profile seeds its synthetic namespace from a stable digest of its
name; Figure 3b (the access-depth table) is pinned by a golden value and
rendered in two interpreters with different hash seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

from repro.experiments import get_experiment

_SRC = Path(__file__).resolve().parents[2] / "src"

#: Figure 3b at quick scale: (namespace, paper avg depth, synth avg depth,
#: median depth, max depth, fraction deeper than 10).
_FIG03B_QUICK_ROWS = [
    ("ns1", 11.6, 12.0, 11, 26, 0.55),
    ("ns2", 11.5, 11.7, 11, 21, 0.54),
    ("ns3", 10.8, 11.3, 11, 23, 0.52),
    ("ns4", 10.6, 10.4, 10, 25, 0.48),
    ("ns5", 11.9, 12.6, 12, 31, 0.76),
]

_RENDER = ("from repro.experiments import get_experiment\n"
           "for table in get_experiment('fig03').run(scale='quick'):\n"
           "    print(table.render())\n")


def _render_with_hash_seed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(_SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", _RENDER], env=env,
                          check=True, capture_output=True,
                          text=True).stdout


def test_fig03b_quick_matches_golden():
    _shape, depths = get_experiment("fig03").run(scale="quick")
    assert [tuple(row) for row in depths.rows] == _FIG03B_QUICK_ROWS


def test_fig03_identical_across_hash_seeds():
    first = _render_with_hash_seed("0")
    assert "Figure 3b" in first
    assert _render_with_hash_seed("1") == first
