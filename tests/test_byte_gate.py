"""Stdout bytes and exit codes of a fixed run matrix stay pinned (see byte_gate)."""

import hashlib
import os
import subprocess
import sys

import pytest

import byte_gate
import dessins
from dessins import parse_cycles
from conftest import closure, load_bipartite

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
    # only these cases take a thread count, which the output must not
    # depend on
    assert byte_gate.digest(run) == PINNED[name]


@pytest.mark.parametrize("seed", ["0", "31337"])
def test_byte_gate_script_matches_under_hash_seed(seed):
    # the whole matrix in a child interpreter with a fixed hash seed, as
    # ``python tests/byte_gate.py`` runs it by hand
    src = os.path.dirname(os.path.dirname(dessins.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, byte_gate.__file__], capture_output=True, text=True,
        env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
    )
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-2000:]
    assert proc.stdout == f"{len(PINNED)} of {len(PINNED)} digests match\n"


def test_matrix_covers_every_pinned_digest():
    assert sorted(name for name, _ in byte_gate.cases()) == sorted(PINNED)


# sha256 of the element set of each fixture's label action: the 0-based
# image tables of every element, sorted and joined.  Pinned while
# ``autgroup`` printed every automorphism but the identity, so a smaller
# generating set must generate the same group.
ELEMENT_SETS = {
    "a4_clean": "2489dafeda8159b905616af9ab72db0604deec834b49b6e44785a0f09979bda3",
    "c33": "d9709c3ce5aad6eb2048acd3ec8f7e985c10a7c72b947e850694417006bdf314",
    "d33": "1d37e5b6422f02bc1a19dcf21d7e0ff475dbdad1428172b886be7e468a86783d",
    "k33": "c9627de458521dde67c3bf7817b43ec3dbab84fb92f6f8a3a59477f4f01800b8",
    "k33_clean": "35b53697e42d41fb92f847802626e16ef3fe7aa4852385fa66c36502ee929ed5",
    "k5_clean": "442813017831b3f33bb69e5cc535e548d79c3df8a1cf452087399f750130edc4",
    "bundle6": "8fe6d124af9f33c547f80c62b5020c575d07aebdec3f18b1f74711c89f448ad9",
    "double_prism": "3101fc4736b98b30fbda01d01731a6a1420019bbfd575ffa02ff2b42b01adb0d",
    "frucht_clean": "5d7e2d9b1dcbc85e7c890036a2cf2f9fe7b66554f2df08cec6aa9c0a25c99c21",
    "k44": "dd67bcfcb20c37720adc71bd360e56125c5d9c75216bf7c6d90f1682d64c5f26",
    "star6": "8fe6d124af9f33c547f80c62b5020c575d07aebdec3f18b1f74711c89f448ad9",
}


@pytest.mark.parametrize("name", byte_gate.ALL_BG)
def test_autgroup_generators_close_to_the_pinned_element_set(name):
    code, text = byte_gate._cli(["autgroup", os.path.join(byte_gate.FIXTURES, name + ".bg")])
    order, heading, *cycles = text.splitlines()
    e = load_bipartite(name + ".bg").e
    generators = [bytes(p - 1 for p in parse_cycles(c, e).images) for c in cycles]
    elements = closure(generators, e)
    assert (code, heading, order) == (0, "generators:", f"order: {len(elements)}")
    assert hashlib.sha256(b"".join(sorted(elements))).hexdigest() == ELEMENT_SETS[name]
