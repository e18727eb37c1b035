"""Golden site classes: the chain analysis classifies every site as stored.

For every bundled program, each chain of ``test_abschain.CHAINS`` and
word sizes 2 and 4, the hierarchical classification of every site —
its key, single-level class, chain class, target and reason — hashes
to the digest in ``chain_classes_golden.json``.  Any change to the
abstract domains that moves a single site's class fails here, so a
refactor of the analysis can show that it leaves the proofs alone.

Regenerate the data (only when a class change is intended) with::

    PYTHONPATH=src python -m tests.staticcheck.test_chain_classes_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.core.config import CacheGeometry
from repro.staticcheck.abschain import classify_chain_program
from repro.workloads import assemble_program
from repro.workloads.programs import PROGRAMS
from tests.staticcheck.test_abschain import CHAINS, GEOMETRY

GOLDEN = Path(__file__).with_name("chain_classes_golden.json")
WORDS = (2, 4)


def _case_key(name: str, word: int, chain: str) -> str:
    return f"{name}/w{word}/{chain}"


def _digest(name: str, word: int, chain: str) -> str:
    report = classify_chain_program(
        assemble_program(name, word),
        CacheGeometry(**GEOMETRY),
        miss_path=CHAINS[chain],
        name=name,
    )
    rows = [
        (s.site, s.l1.value, s.classification.value, s.target, s.reason)
        for s in report.sites
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _all_digests() -> Dict[str, str]:
    return {
        _case_key(name, word, chain): _digest(name, word, chain)
        for name in sorted(PROGRAMS)
        for word in WORDS
        for chain in CHAINS
    }


def test_golden_covers_every_case():
    expected = {
        _case_key(name, word, chain)
        for name in PROGRAMS
        for word in WORDS
        for chain in CHAINS
    }
    assert set(json.loads(GOLDEN.read_text())) == expected


@pytest.mark.parametrize("word", WORDS)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_site_classes_match_golden(name, word):
    golden = json.loads(GOLDEN.read_text())
    for chain in CHAINS:
        key = _case_key(name, word, chain)
        assert _digest(name, word, chain) == golden[key], (
            f"{key}: site classes differ from the golden"
        )


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
