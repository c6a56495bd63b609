"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  The
measured numbers are printed to stdout with ``-s`` / ``--capture=no`` or
collected from the ``extra_info`` field of pytest-benchmark's JSON output.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--experiment-scale",
        action="store",
        default="normal",
        choices=["quick", "normal", "large"],
        help="system sizes used by the benchmark sweeps",
    )


@pytest.fixture(scope="session")
def experiment_sizes(request):
    """System sizes N for sweep-style experiments."""
    scale = request.config.getoption("--experiment-scale")
    if scale == "quick":
        return [5, 9]
    if scale == "large":
        return [5, 9, 17, 33, 65]
    return [5, 9, 17, 33]
