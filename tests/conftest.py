"""Shared pytest hooks: echo acceptance verdict lines in the run summary,
and a fixture that makes studies split their replicas over threads."""

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
def split_blocks(monkeypatch):
    """split_blocks(workers, run) calls run() with BLOCK_COEFFS = 1 on eight
    cores, checks that workers > 1 split each eps level's replicas into at
    least 2 blocks, as seen by the block function of each _block_map call
    (one per level, in every study), and returns run's result with the
    number of levels seen."""
    monkeypatch.setattr(studies_module, "BLOCK_COEFFS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
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
