"""Shared pytest hooks: echo acceptance verdict lines in the run summary,
and a fixture that makes studies split their replicas over threads."""

import os
from collections import defaultdict

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
    least 2 blocks, as seen by coupled_distances (converge),
    reference_distances (theorem15) and replica_norms (averaging), and
    returns run's result with the number of levels seen."""
    monkeypatch.setattr(studies_module, "BLOCK_COEFFS", 1)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    blocks = defaultdict(list)
    # each takes the block's streams last positional; the integrator studies
    # take eps second, and replica_norms the level's centring before the
    # streams, one entry per mode 0..N
    for name, level in (("coupled_distances", lambda args: args[1]),
                        ("reference_distances", lambda args: args[1]),
                        ("replica_norms", lambda args: len(args[-2]))):
        real = getattr(studies_module, name)

        def spy(*args, real=real, level=level, **kw):
            blocks[level(args)].append(len(args[-1]))
            return real(*args, **kw)

        monkeypatch.setattr(studies_module, name, spy)

    def run(workers, fn):
        blocks.clear()
        result = fn()
        assert all(len(sizes) >= min(workers, 2) for sizes in blocks.values())
        return result, len(blocks)

    return run
