"""Tests of the line-scope restricted coset encoder (3-r-cosets)."""

import numpy as np
import pytest

from repro.coding import coset_encoder
from repro.coding.base import FAMILY_CANDIDATES, _scope_sums, family_choice, restricted
from repro.core.errors import ConfigurationError
from repro.core.line import LineBatch
from repro.evaluation.runner import metrics_from_encoded


class TestGeometry:
    def test_aux_bits_and_cells(self):
        encoder = coset_encoder("3-r-cosets", 16)
        assert encoder.num_blocks == 32
        assert encoder.aux_bits == 33          # 1 family bit + 32 selector bits
        assert encoder.aux_cells == 17         # 33 bits packed two per cell

    def test_fewer_aux_cells_than_unrestricted(self):
        """Section V: restriction roughly halves the auxiliary information."""
        for granularity in (8, 16, 32):
            restricted = coset_encoder("3-r-cosets", granularity)
            unrestricted = coset_encoder("3cosets", granularity)
            assert restricted.aux_cells < unrestricted.aux_cells

    def test_family_candidates_table(self):
        assert FAMILY_CANDIDATES.tolist() == [[0, 1], [0, 2]]

    def test_family_choice_is_the_table(self):
        family = np.array([0, 0, 1, 1], dtype=np.uint8)
        selector = np.array([[0], [1], [0], [1]], dtype=np.uint8)
        got = family_choice(family, selector)
        assert got.dtype == np.uint8
        assert got[:, 0].tolist() == FAMILY_CANDIDATES[family, selector[:, 0]].tolist()

    def test_invalid_granularity(self):
        with pytest.raises(ConfigurationError):
            coset_encoder("3-r-cosets", 48)


class TestRoundtrip:
    @pytest.mark.parametrize("granularity", [8, 16, 32, 64, 128])
    def test_roundtrip(self, biased_lines, granularity):
        encoder = coset_encoder("3-r-cosets", granularity)
        assert encoder.roundtrip(biased_lines[:12]) == biased_lines[:12]

    def test_roundtrip_random(self, random_lines):
        encoder = coset_encoder("3-r-cosets", 16)
        assert encoder.roundtrip(random_lines[:12]) == random_lines[:12]


class TestBehaviour:
    def test_blocks_only_use_family_candidates(self, biased_lines):
        """Every block's mapping must come from the single family chosen for the line."""
        encoder = coset_encoder("3-r-cosets", 16)
        lines = biased_lines[:16]
        states = encoder.encode_reference(lines)
        decoded = encoder.decode_states(states)
        assert decoded == lines  # implies the stored family/selector bits are consistent

    def test_restriction_costs_at_most_unrestricted(self, gcc_trace):
        """Figure 5: restricted cosets are only slightly worse than 3cosets."""
        restricted = coset_encoder("3-r-cosets", 16)
        unrestricted = coset_encoder("3cosets", 16)
        old, new = gcc_trace.old[:128], gcc_trace.new[:128]
        restricted_metrics = metrics_from_encoded(restricted.encode_batch(new, old), restricted)
        unrestricted_metrics = metrics_from_encoded(unrestricted.encode_batch(new, old), unrestricted)
        # The restriction gives up flexibility, so the data energy cannot improve
        # much beyond the unrestricted choice and must stay close to it (Figure 5).
        assert restricted_metrics.avg_data_energy_pj >= 0.95 * unrestricted_metrics.avg_data_energy_pj
        assert restricted_metrics.avg_energy_pj <= 1.15 * unrestricted_metrics.avg_energy_pj

    def test_pure_ones_and_zero_line_prefers_family_c1_c2(self):
        """A line of zero and all-ones words is served perfectly by the {C1, C2} family."""
        encoder = coset_encoder("3-r-cosets", 16)
        words = np.zeros((1, 8), dtype=np.uint64)
        words[0, ::2] = 2**64 - 1
        lines = LineBatch(words)
        states = encoder.encode_reference(lines)
        # All data cells end up in the two cheapest states.
        assert states[0, :256].max() <= 1
        assert encoder.decode_states(states) == lines


def reference_restricted(costs, stored=None, flips=None, threshold=None):
    """Algorithm 1 with numpy sums over each scope and the family table (the original)."""
    family_costs = np.stack(
        [np.minimum(costs[0], costs[1]).sum(axis=-1), np.minimum(costs[0], costs[2]).sum(axis=-1)]
    )
    stored_family, stored_choice = (np.uint8(0), None) if stored is None else stored
    family = np.where(
        family_costs[0] < family_costs[1],
        np.uint8(0),
        np.where(family_costs[1] < family_costs[0], np.uint8(1), stored_family),
    ).astype(np.uint8)
    if threshold is not None:
        flips12 = np.where(costs[1] < costs[0], flips[1], flips[0]).sum(axis=-1)
        flips13 = np.where(costs[2] < costs[0], flips[2], flips[0]).sum(axis=-1)
        cost12, cost13 = family_costs
        close = np.abs(cost12 - cost13) <= threshold * np.maximum(np.maximum(cost12, cost13), 1e-12)
        by_flips = np.where(
            flips13 < flips12, np.uint8(1), np.where(flips12 < flips13, np.uint8(0), family)
        )
        family = np.where(close, by_flips, family).astype(np.uint8)
    alternative = np.where(family[..., None] == 0, costs[1], costs[2])
    selector = (alternative < costs[0]).astype(np.uint8)
    if stored is not None:
        keep = (alternative == costs[0]) & (family == stored_family)[..., None]
        selector = np.where(keep, stored_choice != 0, selector).astype(np.uint8)
    return family, FAMILY_CANDIDATES.take(2 * family[..., None] + selector)


class TestKernels:
    """Halving scope sums and the comparison-built family against the originals."""

    @pytest.mark.parametrize("blocks", [1, 2, 4, 8, 16, 32, 64])
    def test_scope_sums(self, blocks):
        rng = np.random.default_rng(blocks)
        ints = rng.integers(0, 65536 * 64, size=(3, 50, 8, blocks), dtype=np.int32)
        assert np.array_equal(_scope_sums(ints), ints.sum(axis=-1))
        floats = rng.random((3, 50, blocks)) * 1e3
        assert np.array_equal(_scope_sums(floats), floats.sum(axis=-1))  # the same order

    @pytest.mark.parametrize("scope", [(8, 1), (8, 2), (8, 4), (8, 8), (1,), (16,), (64,)])
    @pytest.mark.parametrize("threshold", [None, 0.0, 0.1, 2.0])
    def test_restricted_matches_reference(self, scope, threshold):
        rng = np.random.default_rng(len(scope) * 100 + scope[-1])
        n = 400
        for high, dtype in ((3, np.int32), (40, np.int32), (3, np.float64)):  # ties are common
            costs = rng.integers(0, high, size=(3, n) + scope).astype(dtype)
            flips = rng.integers(0, 4, size=(3, n) + scope).astype(np.int32)
            stored_family = rng.integers(0, 2, size=(n,) + scope[:-1], dtype=np.uint8)
            selector = rng.integers(0, 2, size=(n,) + scope, dtype=np.uint8)
            stored_choice = selector << stored_family[..., None]
            for stored in (None, (stored_family, stored_choice)):
                got = restricted(costs, stored, flips, threshold)
                expected = reference_restricted(costs, stored, flips, threshold)
                for a, b in zip(got, expected):
                    assert a.dtype == b.dtype == np.uint8
                    assert np.array_equal(a, b)
