"""Byte decode equals the per-cell decode oracle.

Every coset scheme decodes on state bytes: it packs the data cells, reads
each block's choice from its aux layout, and gathers the candidates' inverse
byte tables at ``choice << 8 | byte``; FlipMin XORs its vector onto the
default decode of the packed words.  :mod:`.cell_oracle` keeps the
per-cell decodes this replaced.  For every line-scope and word-scope coset
configuration (granularities 8-512), FlipMin and the baseline the two must give the
same words on benchmark, random and adversarial lines written over fresh,
reference-encoded and random stored cells, and on uniformly random cell
states -- whose aux values include ones no encoder writes: two-cell pairs
outside the cheapest pairs, index cells past the last candidate, WLC index
fields past the last candidate and flag cells in S3 or S4.
"""

import numpy as np
import pytest

from repro.coding import make_scheme

from . import cell_oracle
from .test_byte_costs import COSET_SCHEMES

#: Every scheme whose decode moved onto state bytes (DIN and COC+4cosets
#: keep their own decodes).
BYTE_DECODED = ["baseline"] + [s for s in COSET_SCHEMES if s != "coc+4cosets"]


def assert_decodes_as_oracle(encoder, states):
    got = encoder.decode_states(states).words
    assert np.array_equal(got, cell_oracle.decode(encoder.name, encoder.energy_model, states))
    return got


@pytest.mark.parametrize("scheme", BYTE_DECODED)
def test_byte_decode_matches_oracle_on_written_lines(scheme, write_requests):
    encoder = make_scheme(scheme)
    old, new = write_requests
    rng = np.random.default_rng(7)
    random = rng.integers(0, 4, size=(len(new), encoder.total_cells), dtype=np.uint8)
    for stored in (encoder.fresh_states(len(new)), encoder.encode_reference(old), random):
        states = encoder.encode_against_stored(new, stored).states
        assert np.array_equal(assert_decodes_as_oracle(encoder, states), new.words)


@pytest.mark.parametrize("scheme", BYTE_DECODED)
def test_byte_decode_matches_oracle_on_random_states(scheme):
    encoder = make_scheme(scheme)
    rng = np.random.default_rng(19)
    states = rng.integers(0, 4, size=(512, encoder.total_cells), dtype=np.uint8)
    assert_decodes_as_oracle(encoder, states)
    if encoder.total_cells > 256:  # every appended cell takes every state
        assert all(set(np.unique(column)) == {0, 1, 2, 3} for column in states[:, 256:].T)


@pytest.mark.parametrize("scheme", BYTE_DECODED)
def test_byte_decode_of_no_lines(scheme):
    encoder = make_scheme(scheme)
    states = np.zeros((0, encoder.total_cells), dtype=np.uint8)
    assert assert_decodes_as_oracle(encoder, states).shape == (0, 8)
