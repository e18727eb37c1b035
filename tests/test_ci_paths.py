"""Every script a CI step invokes and every flag the docs name must exist.

A job left pointing at a deleted or renamed script only fails on the
CI host, after a push.  This reads ``.github/workflows/ci.yml`` with a
regex (PyYAML is not a test dependency), so commands inside ``run: |``
blocks count too, and checks each ``benchmarks/...`` path a
``python`` or ``pytest`` command names against the tree.  A ``--flag``
in the docs is checked against ``python -m repro``'s parser the same
way, so a renamed or never-added option cannot linger in prose.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"
DOCS = sorted((ROOT / "docs").glob("*.md")) + [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
]

#: Flags the docs name for tools other than ``python -m repro``.
OTHER_TOOLS = {
    "--url": "benchmarks/bench_service.py",
    "--degraded": "benchmarks/bench_service.py",
    "--benchmark-only": "pytest (pytest-benchmark)",
}

_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")

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


def _cli_flags(parser: argparse.ArgumentParser) -> "set[str]":
    flags = set()
    for action in parser._actions:
        flags.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices.values():
                flags |= _cli_flags(command)
    return flags


def test_docs_name_only_real_cli_flags():
    known = _cli_flags(_build_parser()) | set(OTHER_TOOLS)
    unknown = sorted(
        f"{doc.relative_to(ROOT)}:{number}: {flag}"
        for doc in DOCS
        for number, line in enumerate(doc.read_text().splitlines(), 1)
        for flag in _FLAG.findall(line)
        if flag not in known
    )
    assert not unknown, f"docs name flags python -m repro lacks: {unknown}"
