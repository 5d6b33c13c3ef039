"""The exact-integer metric reduction equals the per-cell float reference.

:func:`repro.evaluation.runner.metrics_from_encoded` counts the rewritten
cells programmed to each state and prices each count once; disturbance is one
gather from an 8-entry rate table.  The reference here is the per-cell float
reduction it replaced: a float64 energy per cell split with ``np.where``
masks, and ``rate[stored] * vulnerable`` summed per line, then over lines (or,
sampled, one uniform draw per cell below ``rate[stored]`` on vulnerable
cells).  Every shipped energy model is integral, so all eight
``WriteMetrics`` fields must be *identical* -- same type, same value, same
sign -- for every scheme and granularity, fresh and reference-encoded stored
cells, expected and sampled disturbance, every disturbance model and window
size tried here.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.coding import EncodedBatch, make_scheme
from repro.core.disturbance import DEFAULT_DISTURBANCE_MODEL, DisturbanceModel
from repro.core.energy import DEFAULT_ENERGY_MODEL, EnergyModel, figure14_energy_models
from repro.core.line import LineBatch
from repro.core.metrics import WriteMetrics
from repro.core.symbols import SYMBOLS_PER_LINE, pack_state_bytes
from repro.evaluation.runner import metrics_from_encoded
from repro.workloads.generator import generate_benchmark_trace

GRANULARITIES = (8, 16, 32, 64, 128, 256, 512)
WLC_GRANULARITIES = (8, 16, 32, 64)
ALL_SCHEMES = (
    ["baseline", "din", "flipmin", "coc+4cosets"]
    + [f"fnw-{g}" for g in GRANULARITIES]
    + [f"{p}-{g}" for p in ("6cosets", "4cosets", "3cosets", "3-r-cosets") for g in GRANULARITIES]
    + [f"{p}-{g}" for p in ("wlc+4cosets", "wlc+3cosets", "wlcrc") for g in WLC_GRANULARITIES]
    + [f"wlcrc-{g}-mo" for g in WLC_GRANULARITIES]
)

DISTURBANCE_MODELS = {
    "default": DEFAULT_DISTURBANCE_MODEL,
    "all-zero": DisturbanceModel(rates=(0.0, 0.0, 0.0, 0.0)),
    "all-one": DisturbanceModel(rates=(1.0, 1.0, 1.0, 1.0)),
}


# ---------------------------------------------------------------------- #
# Per-cell float reference
# ---------------------------------------------------------------------- #
def reference_metrics(encoded, encoder, disturbance_model, rng=None):
    """The per-cell float64 reduction ``metrics_from_encoded`` replaced."""
    changed = encoded.states != encoded.old_states
    aux = encoded.aux_mask
    energy = encoder.energy_model.write_energy_per_state[encoded.states] * changed
    neighbour = np.zeros_like(changed)
    neighbour[..., :-1] |= changed[..., 1:]
    neighbour[..., 1:] |= changed[..., :-1]
    vulnerable = ~changed & neighbour
    rates = disturbance_model.rate_per_state[encoded.old_states]
    if rng is None:
        disturbance = float((rates * vulnerable).sum(axis=-1).sum())
    else:
        draws = rng.random(size=rates.shape)
        disturbance = float((vulnerable & (draws < rates)).sum())
    return WriteMetrics(
        requests=int(encoded.states.shape[0]),
        data_energy_pj=float(np.where(aux, 0.0, energy).sum()),
        aux_energy_pj=float(np.where(aux, energy, 0.0).sum()),
        updated_data_cells=float(np.where(aux, False, changed).sum()),
        updated_aux_cells=float(np.where(aux, changed, False).sum()),
        disturbance_errors=disturbance,
        compressed_lines=int(encoded.compressed.sum()),
        encoded_lines=int(encoded.encoded.sum()),
    )


def assert_identical(got: WriteMetrics, expected: WriteMetrics) -> None:
    """Field by field: same type and same ``repr`` (so ``-0.0 != 0.0``)."""
    for field in fields(WriteMetrics):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        assert type(a) is type(b) and repr(a) == repr(b), (field.name, a, b)


def check_every_mode(encoded, encoder, windows=((0, 0), (0, 1), (3, 20), None)):
    """Both reductions agree on every window, disturbance model and mode."""
    for bounds in windows:
        window = encoded if bounds is None else encoded.window(*bounds)
        for index, model in enumerate(DISTURBANCE_MODELS.values()):
            assert_identical(
                metrics_from_encoded(window, encoder, model),
                reference_metrics(window, encoder, model),
            )
            seed = (index, len(window))
            assert_identical(
                metrics_from_encoded(window, encoder, model, np.random.default_rng(seed)),
                reference_metrics(window, encoder, model, np.random.default_rng(seed)),
            )


# ---------------------------------------------------------------------- #
# Inputs
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def write_requests():
    """``(old, new)`` batches: benchmark, random and adversarial lines."""
    rng = np.random.default_rng(2026)
    trace = generate_benchmark_trace("gcc", length=48, seed=7)
    patterns = np.array(
        [[0] * 8, [2**64 - 1] * 8, [0xAAAA_AAAA_AAAA_AAAA] * 8, [0x5555_5555_5555_5555] * 8],
        dtype=np.uint64,
    )
    new = np.concatenate([trace.new.words, LineBatch.random(16, rng).words, patterns])
    old = np.concatenate([trace.old.words, LineBatch.random(16, rng).words, patterns[::-1]])
    single_bit = new[:24].copy()
    bits = rng.integers(0, 64, 24).astype(np.uint64)
    single_bit[np.arange(24), np.arange(24) % 8] ^= np.uint64(1) << bits
    new = np.concatenate([new, single_bit, new[:12]])
    old = np.concatenate([old, new[:24], new[:12]])  # single-bit deltas, then old == new
    return LineBatch(old), LineBatch(new)


# ---------------------------------------------------------------------- #
# Exact reduction == per-cell reference
# ---------------------------------------------------------------------- #
class TestAgainstPerCellReference:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_scheme(self, scheme, write_requests):
        encoder = make_scheme(scheme)
        old, new = write_requests
        fresh = encoder.encode_against_stored(new, encoder.fresh_states(len(new)))
        check_every_mode(fresh, encoder)
        check_every_mode(encoder.encode_batch(new, old), encoder)

    @pytest.mark.parametrize(
        "model", figure14_energy_models(), ids=lambda m: f"s3-{m.set_energy_pj[2]:g}"
    )
    @pytest.mark.parametrize(
        "scheme", ["baseline", "din", "flipmin", "fnw", "6cosets-16", "coc+4cosets",
                   "wlcrc-16", "wlcrc-16-mo"]
    )
    def test_figure14_models(self, scheme, model, write_requests):
        encoder = make_scheme(scheme, model)
        old, new = write_requests
        check_every_mode(encoder.encode_batch(new, old), encoder)

    @pytest.mark.parametrize("scheme", ["baseline", "din", "6cosets", "coc+4cosets", "wlcrc-16"])
    def test_window_sizes(self, scheme):
        """Windows of 0, 1, 17 and 2048 lines of one 2048-line encode."""
        encoder = make_scheme(scheme)
        trace = generate_benchmark_trace("mcf", length=2048, seed=3)
        encoded = encoder.encode_batch(trace.new, trace.old)
        check_every_mode(encoded, encoder, windows=((5, 5), (7, 8), (100, 117), (0, 2048)))


# ---------------------------------------------------------------------- #
# Packed-word edges: every neighbour carry of the byte path
# ---------------------------------------------------------------------- #
def edge_cell_sets(total_cells):
    """Rewritten-cell sets whose neighbours sit across a carry of the packed reduction.

    Each side and both sides of the seven 64-bit word boundaries (cells
    31|32 ... 223|224) and of the data/aux boundary (255|256, when the
    scheme appends cells), the first and the last cell, and every cell.
    """
    pairs = [(32 * word - 1, 32 * word) for word in range(1, 8)]
    if total_cells > SYMBOLS_PER_LINE:
        pairs.append((SYMBOLS_PER_LINE - 1, SYMBOLS_PER_LINE))
    sets = [cells for left, right in pairs for cells in ([left], [right], [left, right])]
    last = total_cells - 1
    return sets + [[0], [last], [0, last], list(range(total_cells))]


def edge_batch(encoded, seed):
    """``encoded``'s lines re-stored so that only the cells of one edge set change.

    Line ``i`` takes the new states of line ``i % n`` and stores them with
    the cells of edge set ``i`` moved to another state; every other cell is
    unchanged, so its stored state is the line's own.
    """
    rng = np.random.default_rng(seed)
    states = encoded.states
    sets = edge_cell_sets(states.shape[1])
    rows = np.arange(len(sets)) % len(encoded)
    old = states[rows].copy()
    for line, cells in enumerate(sets):
        old[line, cells] = (old[line, cells] + rng.integers(1, 4, len(cells))) % 4
    batch = EncodedBatch(
        data=encoded.data[rows],
        aux=encoded.aux[rows],
        aux_bytes=None if encoded.aux_bytes is None else encoded.aux_bytes[rows],
        compressed=encoded.compressed[rows],
        encoded=encoded.encoded[rows],
        old_data=pack_state_bytes(old[:, :SYMBOLS_PER_LINE]),
        old_aux=old[:, SYMBOLS_PER_LINE:],
    )
    changed = batch.changed
    for line, cells in enumerate(sets):
        assert np.flatnonzero(changed[line]).tolist() == cells
    return batch


class TestPackedWordEdges:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_every_scheme(self, scheme, write_requests):
        encoder = make_scheme(scheme)
        old, new = write_requests
        for seed, encoded in enumerate((
            encoder.encode_against_stored(new, encoder.fresh_states(len(new))),
            encoder.encode_batch(new, old),
        )):
            check_every_mode(edge_batch(encoded, seed), encoder)

    def test_edge_sets_cover_every_boundary(self):
        sets = edge_cell_sets(258)
        assert [31, 32] in sets and [223, 224] in sets and [255, 256] in sets
        assert [0] in sets and [257] in sets and list(range(258)) in sets
        assert [255, 256] not in edge_cell_sets(256)


# ---------------------------------------------------------------------- #
# Exactness contract
# ---------------------------------------------------------------------- #
class TestExactnessContract:
    @pytest.mark.parametrize("model", (DEFAULT_ENERGY_MODEL,) + figure14_energy_models())
    def test_shipped_models_stay_far_below_float_precision(self, model):
        """Integral weights and any window under 2**30 cells: exact in float64."""
        assert model.is_integral
        assert float(model.write_energy_per_state.max()) * 2**30 < 2**53

    def test_non_integral_model_matches_closely(self, write_requests):
        model = EnergyModel(reset_energy_pj=36.3, set_energy_pj=(0.0, 20.7, 307.1, 547.9))
        assert not model.is_integral
        encoder = make_scheme("wlcrc-16", model)
        old, new = write_requests
        encoded = encoder.encode_batch(new, old)
        got = metrics_from_encoded(encoded, encoder)
        expected = reference_metrics(encoded, encoder, DEFAULT_DISTURBANCE_MODEL)
        for name in ("data_energy_pj", "aux_energy_pj"):
            assert getattr(got, name) == pytest.approx(getattr(expected, name), rel=1e-9)
        for name in ("updated_data_cells", "updated_aux_cells", "disturbance_errors"):
            assert getattr(got, name) == getattr(expected, name)

    def test_expected_disturbance_sums_per_line_then_over_lines(self):
        """The one order-sensitive metric: its summation order is part of the contract."""
        encoder = make_scheme("baseline")
        trace = generate_benchmark_trace("gcc", length=300, seed=11)
        encoded = encoder.encode_batch(trace.new, trace.old)
        per_cell = DEFAULT_DISTURBANCE_MODEL.expected_errors_per_cell(
            encoded.old_states, encoded.changed
        )
        got = metrics_from_encoded(encoded, encoder).disturbance_errors
        assert got == float(per_cell.sum(axis=-1).sum())
        # Per-cell values are exactly ``rate[stored] * vulnerable``.
        vulnerable = DEFAULT_DISTURBANCE_MODEL.vulnerable_mask(encoded.old_states, encoded.changed)
        rates = DEFAULT_DISTURBANCE_MODEL.rate_per_state[encoded.old_states]
        assert np.array_equal(per_cell, rates * vulnerable)
        assert not np.signbit(per_cell).any()

    def test_sampled_disturbance_is_one_draw_per_cell(self):
        encoder = make_scheme("baseline")
        trace = generate_benchmark_trace("gcc", length=64, seed=2)
        encoded = encoder.encode_batch(trace.new, trace.old)
        rng = np.random.default_rng(5)
        metrics_from_encoded(encoded, encoder, rng=rng)
        after = np.random.default_rng(5)
        after.random(size=encoded.states.shape)
        assert rng.random() == after.random()
