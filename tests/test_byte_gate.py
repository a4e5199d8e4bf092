"""Stdout bytes and exit codes of a fixed run matrix stay pinned (see byte_gate)."""

import pytest

import byte_gate

PINNED = byte_gate.load()


@pytest.mark.parametrize("name, run", [
    pytest.param(name, run, id=name) for name, run in byte_gate.cases()
])
def test_output_bytes_match_pinned_digest(name, run):
    assert byte_gate.digest(run) == PINNED[name]


def test_matrix_covers_every_pinned_digest():
    assert sorted(name for name, _ in byte_gate.cases()) == sorted(PINNED)
