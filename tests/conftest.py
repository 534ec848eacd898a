from __future__ import annotations

import sys

import pytest

import _report

# the curvemeet modules as the collected tests imported them
_COLLECTED: dict = {}


def _curvemeet_modules() -> dict:
    return {
        name: module
        for name, module in sys.modules.items()
        if name == "curvemeet" or name.startswith("curvemeet.")
    }


def pytest_collection_finish(session) -> None:
    _COLLECTED.update(_curvemeet_modules())


@pytest.fixture(autouse=True)
def _curvemeet_as_collected():
    """Give each test the curvemeet modules that its module imported.
    A test elsewhere may import the package afresh (perfbench's `cm`
    fixture does); a test here would then hold the old modules while
    its lazy imports load new ones."""
    for name in _curvemeet_modules().keys() - _COLLECTED.keys():
        del sys.modules[name]
    sys.modules.update(_COLLECTED)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _report.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_report.RESULTS):
        label, status, detail = _report.RESULTS[num]
        line = f"criterion {num} ({label}): {status}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)
