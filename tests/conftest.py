"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from smtrack import ellipsoid, experiments
from smtrack.robust import ControlBounds, solve_robust


@pytest.fixture(autouse=True)
def nothing_held():
    """Each test starts with no value held by ``ellipsoid._held``."""
    for held in ellipsoid._HELD:
        held.clear()


@pytest.fixture
def infeasible_controller(monkeypatch):
    """Every closed-loop robust solve sees an empty input box.

    It then reports status ``"infeasible"`` with a NaN input, and the run
    aborts at step 1. A scenario with an empty box is rejected at load, so
    this is how a test reaches that abort.
    """
    def solve(instance, belief, bounds):
        empty = ControlBounds(np.ones(bounds.m), -np.ones(bounds.m))
        return solve_robust(instance, belief, empty)

    monkeypatch.setattr(experiments, "solve_robust", solve)
