"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from helpers import build_system
from repro.config import Design
from repro.harness.campaign import release_prefix
from repro.workloads.base import clear_populate_memo


@pytest.fixture(autouse=True)
def _no_held_crash_prefix():
    """Drop any crash-sweep prefix machine a test leaves held.

    A held machine would otherwise outlive its test: it enlarges every
    later fork, and it keeps hooks bound at build time, so a later test
    that patches ``System`` could be served a machine built without the
    patch.
    """
    yield
    release_prefix()


@pytest.fixture(autouse=True)
def _no_kept_populate():
    """Drop the populate snapshot a test leaves behind.

    A later test that patches a workload's ``_setup_thread`` would
    otherwise be served state built without the patch.
    """
    yield
    clear_populate_memo()


@pytest.fixture
def system():
    """A small 4-core ATOM-OPT machine with invariant checking on."""
    return build_system()


@pytest.fixture(params=[Design.BASE, Design.ATOM, Design.ATOM_OPT])
def undo_system(request):
    """One small machine per undo-logging design."""
    return build_system(design=request.param)


@pytest.fixture(
    params=[Design.BASE, Design.ATOM, Design.ATOM_OPT, Design.NON_ATOMIC,
            Design.REDO]
)
def any_system(request):
    """One small machine per evaluated design."""
    return build_system(design=request.param)
