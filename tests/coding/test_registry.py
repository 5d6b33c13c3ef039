"""Tests of the scheme registry."""

import pytest

from repro.coding import (
    COSET_SPECS,
    FIGURE8_SCHEMES,
    CosetEncoder,
    WLCCosetEncoder,
    available_schemes,
    coset_encoder,
    make_scheme,
)
from repro.coding.baseline import BaselineEncoder
from repro.core.energy import EnergyModel
from repro.core.errors import ConfigurationError


class TestNames:
    def test_all_advertised_schemes_construct(self):
        for name in available_schemes():
            encoder = make_scheme(name)
            assert encoder.total_cells >= 256

    def test_figure8_schemes_construct(self):
        for name in FIGURE8_SCHEMES:
            assert make_scheme(name) is not None

    def test_default_granularities(self):
        assert make_scheme("6cosets").granularity_bits == 512
        assert make_scheme("wlc+4cosets").granularity_bits == 32
        assert make_scheme("wlcrc").granularity_bits == 16
        assert make_scheme("3-r-cosets").granularity_bits == 16

    def test_granularity_suffixes(self):
        assert make_scheme("6cosets-16").granularity_bits == 16
        assert make_scheme("wlcrc-32").granularity_bits == 32
        assert make_scheme("fnw-256").granularity_bits == 256

    def test_case_insensitive(self):
        assert isinstance(make_scheme("Baseline"), BaselineEncoder)
        assert isinstance(make_scheme("WLCRC-16"), WLCCosetEncoder)

    def test_multiobjective_suffix(self):
        encoder = make_scheme("wlcrc-16-mo")
        assert isinstance(encoder, WLCCosetEncoder)
        assert encoder.endurance_threshold == pytest.approx(0.01)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_scheme("does-not-exist")
        with pytest.raises(ConfigurationError):
            make_scheme("wlcrc-24")


def _spec(name):
    return next(spec for spec in COSET_SPECS if spec.name == name)


class TestEngineConstruction:
    """The engines check a spec themselves, however they are built."""

    def test_engines_reject_block_sizes_the_spec_lacks(self):
        for engine, name, bits in [
            (CosetEncoder, "6cosets", 48),
            (CosetEncoder, "3-r-cosets", 24),
            (WLCCosetEncoder, "wlc+4cosets", 128),
            (WLCCosetEncoder, "wlcrc", 64),  # the restricted row; 64 is its own row
        ]:
            with pytest.raises(ConfigurationError):
                engine(_spec(name), bits)

    def test_engines_reject_layouts_they_do_not_write(self):
        with pytest.raises(ConfigurationError):
            WLCCosetEncoder(_spec("4cosets"), 32)
        with pytest.raises(ConfigurationError):
            WLCCosetEncoder(_spec("3-r-cosets"), 16)
        with pytest.raises(ConfigurationError):
            CosetEncoder(_spec("wlc+4cosets"), 32)

    def test_only_wlcrc_takes_an_endurance_threshold(self):
        for spec in COSET_SPECS:
            if spec.name == "wlcrc":
                continue
            with pytest.raises(ConfigurationError):
                coset_encoder(spec.name, spec.default_bits, endurance_threshold=0.01)
        with pytest.raises(ConfigurationError):
            coset_encoder("6cosets", 16, endurance_threshold=0.01)
        with pytest.raises(ConfigurationError):
            coset_encoder("3-r-cosets", 16, endurance_threshold=0.01)
        for name in ("6cosets-mo", "3-r-cosets-16-mo", "wlc+3cosets-mo", "fnw-mo"):
            with pytest.raises(ConfigurationError):
                make_scheme(name)
        for bits in (8, 16, 32, 64):
            encoder = coset_encoder("wlcrc", bits, endurance_threshold=0.01)
            assert encoder.name == f"wlcrc-{bits}-mo0.01"

    def test_every_spec_builds_at_its_default_block_size(self):
        for spec in COSET_SPECS:
            assert spec.default_bits in spec.granularities
            assert coset_encoder(spec.name, spec.default_bits).spec is spec

    def test_word_engine_has_no_appended_aux_layout(self):
        encoder = make_scheme("wlcrc-16")
        for member in ("aux_bits", "_aux_states", "_read_aux"):
            assert not hasattr(encoder, member)
        assert encoder.aux_cells == 1


class TestEnergyModelPlumbing:
    def test_custom_energy_model_is_used(self):
        model = EnergyModel(set_energy_pj=(0.0, 20.0, 75.0, 135.0))
        encoder = make_scheme("wlcrc-16", model)
        assert encoder.energy_model == model

    def test_names_are_preserved(self):
        for name in ("baseline", "flipmin", "din", "coc+4cosets", "wlcrc-16"):
            assert make_scheme(name).name.startswith(name.split("-")[0])
