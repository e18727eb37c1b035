"""Every bundled workload program must lint clean.

This is the merge gate the ``repro lint`` CI job enforces; keeping it
in the test suite means a program edit that introduces dead code, an
unbalanced frame, or a wild branch fails locally too.
"""

import pytest

from repro.staticcheck import check_program, footprint
from repro.workloads import assemble_program
from repro.workloads.programs import PROGRAMS


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("word_size", [2, 4])
def test_program_lints_clean(name, word_size):
    diagnostics = check_program(assemble_program(name, word_size), name=name)
    assert diagnostics == [], "\n".join(d.render() for d in diagnostics)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_program_has_a_loop_and_real_footprints(name):
    # Every bundled workload iterates; a loop-free "workload" would not
    # exercise the temporal locality the paper's traces depend on.
    report = footprint(assemble_program(name, 2), name=name)
    assert report.code_bytes > 0
    assert report.data_bytes > 0
    assert report.hot_loop_bytes > 0
    assert any(loop.innermost for loop in report.loops)
    assert any(loop.mem_ops > 0 for loop in report.loops)
