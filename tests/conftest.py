"""Shared pytest hooks: echo acceptance verdict lines in the run summary,
and fixtures that keep a study's levels on the test's process and make
studies split their replicas over threads."""

import os

import pytest

import spdelab.studies as studies_module

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def levels_here(monkeypatch):
    """Runs every integrator study's eps levels on the test's own process,
    one after another, where spies on the functions a level calls see
    every call (in a forked child they would not)."""
    monkeypatch.setattr(studies_module, "_map_levels",
                        studies_module._levels_here)


@pytest.fixture
def forks(monkeypatch):
    """A list that gains an entry for every os.fork the test's process
    makes, counted in the parent before the child exists."""
    made = []
    real = os.fork

    def counted():
        made.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture
def split_blocks(monkeypatch, levels_here):
    """split_blocks(workers, run) calls run() with BLOCK_COEFFS = 1 on eight
    cores, checks that workers > 1 split each eps level's replicas into at
    least 2 blocks, as seen by the block function of each _block_map call
    (one per level, in every study), and returns run's result with the
    number of levels seen.  The levels run on this process (levels_here),
    so that the spy sees every call."""
    monkeypatch.setattr(studies_module, "BLOCK_COEFFS", 1)
    monkeypatch.setattr(studies_module, "usable_cores", lambda: 8)
    levels = []
    real = studies_module._block_map

    def spy(fn, cfg, per_replica):
        sizes = []
        levels.append(sizes)

        def counted(streams):
            sizes.append(len(streams))
            return fn(streams)

        return real(counted, cfg, per_replica)

    monkeypatch.setattr(studies_module, "_block_map", spy)

    def run(workers, fn):
        levels.clear()
        result = fn()
        assert all(len(sizes) >= min(workers, 2) for sizes in levels)
        return result, len(levels)

    return run
