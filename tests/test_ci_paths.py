"""Every benchmark script a CI step invokes must exist.

A job left pointing at a deleted or renamed script only fails on the
CI host, after a push.  This reads ``.github/workflows/ci.yml`` with a
regex (PyYAML is not a test dependency), so commands inside ``run: |``
blocks count too, and checks each ``benchmarks/...`` path a
``python`` or ``pytest`` command names against the tree.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

#: ``python benchmarks/x.py``, ``python -m pytest benchmarks/x.py`` or
#: ``pytest benchmarks/x.py``, flags before the path allowed.
_INVOCATION = re.compile(
    r"\b(?:python[\d.]*(?:\s+-m\s+pytest)?|pytest)(?:\s+-\S+)*\s+(benchmarks/[\w./-]+)"
)


def test_ci_invokes_only_existing_benchmark_scripts():
    scripts = set(_INVOCATION.findall(WORKFLOW.read_text()))
    assert scripts, "no CI step invokes a benchmarks/ script; is the regex stale?"
    missing = sorted(path for path in scripts if not (ROOT / path).exists())
    assert not missing, f"ci.yml invokes scripts that do not exist: {missing}"
