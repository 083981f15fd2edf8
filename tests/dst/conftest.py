"""One session-wide memo of scenario executions for tests that only read.

Execution is a pure function of ``(scenario, backend, bug, collect_trace)``
— that is the determinism guarantee itself — so a test that only *reads* a
result may share it with every other test that asks for the same four
values.  The determinism tests (and anything that mutates a result) keep
calling :func:`repro.dst.run_scenario` / ``execute_scenario`` directly:
they are the ones proving the memo is sound.
"""

from dataclasses import replace
from unittest import mock

import pytest

from repro.dst import executor


class ScenarioMemo:
    """Memoised ``execute_scenario`` / ``run_scenario``; results are
    read-only (step documents are shared between callers)."""

    def __init__(self):
        self._execute = executor.execute_scenario
        self._results = {}

    def execute(self, scenario, backend="thread", bug=None,
                collect_trace=False):
        key = (scenario, backend, bug, collect_trace)
        if key not in self._results:
            self._results[key] = self._execute(
                scenario, backend=backend, bug=bug,
                collect_trace=collect_trace,
            )
        found = self._results[key]
        # run_scenario appends differential findings to the thread result
        # it is handed, so every caller gets its own violations list.
        return replace(found, violations=list(found.violations))

    def patched(self):
        """While open, everything that executes a scenario — ``run_scenario``,
        the CLI — executes it through the memo."""
        return mock.patch.object(executor, "execute_scenario", self.execute)

    def run(self, scenario, backend=None, bug=None):
        """The real ``run_scenario`` over memoised executions, so a
        differential scenario shares its two backend runs too."""
        with self.patched():
            return executor.run_scenario(scenario, backend=backend, bug=bug)


@pytest.fixture(scope="session")
def memo():
    return ScenarioMemo()
