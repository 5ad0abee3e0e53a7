"""Fixtures shared by the test modules."""

from dataclasses import replace

import numpy as np
import pytest

from smtrack import ellipsoid, experiments
from smtrack.robust import solve_robust


@pytest.fixture(autouse=True)
def nothing_held():
    """Each test starts with no value held by ``ellipsoid._held``."""
    for held in ellipsoid._HELD:
        held.clear()


@pytest.fixture
def nonoptimal_controller(monkeypatch):
    """Every closed-loop robust solve ends ``"max_iter"`` with a NaN input.

    The run then aborts at step 1. No shipped program reaches that status,
    so this is how a test reaches that abort.
    """
    def solve(instance, belief, bounds):
        sol = solve_robust(instance, belief, bounds)
        return replace(sol, u=np.full(sol.u.shape, np.nan), status="max_iter")

    monkeypatch.setattr(experiments, "solve_robust", solve)
