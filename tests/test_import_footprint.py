"""What importing and running repro loads.

A Figure 5 sweep, a zoo table, the service client and the CLI need numpy
and at most ``scipy.special``; ``scipy.stats``, ``scipy.optimize`` and
``networkx`` take most of a second to import and serve only the exact
Markov-chain analyses.  Each case runs in a fresh interpreter, because
this one has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

HEAVY = {"scipy.stats", "scipy.optimize", "networkx"}

#: The directory ``repro`` is imported from, put first on the child's path.
_SOURCE = str(Path(repro.__file__).resolve().parent.parent)


def loaded_after(code: str) -> set:
    """The names in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    path = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=_SOURCE + (os.pathsep + path if path else ""),
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.core",
        "repro.stats",
        "repro.markov",
        "repro.chains",
        "repro.core.sweep",
        "repro.core.uniformity",
        "repro.service.client",
        "repro.cli",
    ],
)
def test_import_loads_no_heavy_dependency(module):
    loaded = loaded_after(f"import {module}")
    assert module in loaded
    assert not loaded & HEAVY, sorted(loaded & HEAVY)


def test_zoo_table_loads_no_scipy():
    loaded = loaded_after(
        "from repro.core.uniformity import zoo_departure_table\n"
        "zoo_departure_table(['msqueue'], n_processes=3, steps=300, seed=1)"
    )
    scipy = sorted(m for m in loaded if m.split(".")[0] == "scipy")
    assert not scipy, scipy


def test_sweep_loads_scipy_special_but_not_scipy_stats():
    # The Student-t critical value of each point's interval is the only
    # scipy call on a sweep's path.
    loaded = loaded_after(
        "from repro.algorithms.counter import cas_counter, make_counter_memory\n"
        "from repro.core.sweep import latency_sweep\n"
        "latency_sweep(cas_counter, make_counter_memory, [2, 3],"
        " steps=500, repeats=2, seed=1)"
    )
    assert "scipy.special" in loaded
    assert not loaded & HEAVY, sorted(loaded & HEAVY)
