"""Acceptance battery: one test per criterion, each printing its pass/fail
line and detail block.  Run with ``pytest -s tests/test_acceptance.py`` to
see the full report, or via ``diagbase paper-suite``.
"""

import pytest

from diagbase.suite import ALL_CRITERIA, run_criterion


@pytest.mark.parametrize("fn", ALL_CRITERIA,
                         ids=[f"criterion_{f.criterion_id}"
                              for f in ALL_CRITERIA])
def test_criterion(fn):
    result = run_criterion(fn)
    status = "PASS" if result["passed"] else "FAIL"
    print(f"\n[{status}] criterion {result['id']}: {result['name']}")
    for line in result["details"]:
        print(f"    {line}")
    assert result["passed"], \
        f"criterion {result['id']} failed:\n" + "\n".join(result["details"])
