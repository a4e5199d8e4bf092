"""Stdout bytes and exit codes of a fixed run matrix stay pinned (see byte_gate)."""

import pytest

import byte_gate

PINNED = byte_gate.load()


@pytest.mark.parametrize("name, run", [
    pytest.param(name, run, id=name) for name, run in byte_gate.cases()
])
def test_output_bytes_match_pinned_digest(name, run):
    assert byte_gate.digest(run) == PINNED[name]


@pytest.mark.parametrize("name, run", [
    pytest.param(name, run, id=name) for name, run in byte_gate.cases(threads=2)
    if name.startswith(("classify ", "library "))
])
def test_output_bytes_match_pinned_digest_at_two_threads(name, run):
    # only these cases take a thread count; the CLI's classify runs, which
    # compute monodromy groups, fork a pool on a host of two or more cores
    assert byte_gate.digest(run) == PINNED[name]


def test_matrix_covers_every_pinned_digest():
    assert sorted(name for name, _ in byte_gate.cases()) == sorted(PINNED)
