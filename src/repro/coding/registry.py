"""Scheme registry: build any evaluated encoding scheme from its name.

The names follow the paper's terminology.  A granularity suffix (``-8``,
``-16``, ``-32``, ...) can be appended to the coset-based schemes; without a
suffix each scheme uses the default granularity the paper evaluates it at
(512-bit lines for 6cosets, 128-bit blocks for FNW, 32-bit blocks for
WLC+4cosets, 16-bit blocks for WLCRC).

Examples
--------
>>> from repro.coding import make_scheme
>>> make_scheme("wlcrc-16").name
'wlcrc-16'
>>> make_scheme("6cosets").granularity_bits
512
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.cosets import C1, C3, FOUR_COSETS, SIX_COSETS, THREE_COSETS
from ..core.energy import DEFAULT_ENERGY_MODEL, EnergyModel
from ..core.errors import ConfigurationError
from .base import WriteEncoder
from .baseline import BaselineEncoder
from .coc_cosets import COCFourCosetsEncoder
from .din import DINEncoder
from .engines import CosetEncoder, CosetEngine, CosetSpec, WLCCosetEncoder
from .flipmin import FlipMinEncoder

#: Default threshold of the multi-objective WLCRC variant (Section VIII-D).
DEFAULT_ENDURANCE_THRESHOLD = 0.01

#: Scheme names evaluated in Figures 8, 9 and 10, in the paper's order.
FIGURE8_SCHEMES = (
    "baseline",
    "flipmin",
    "fnw",
    "din",
    "6cosets",
    "coc+4cosets",
    "wlc+4cosets",
    "wlcrc-16",
)

#: Reclaimed bits per word of the unrestricted WLC schemes: a 2-bit index per
#: block, 16/8/4/2 bits at 8/16/32/64-bit blocks (Section IX-A).
_INDEX_BITS = {8: 16, 16: 8, 32: 4, 64: 2}

#: Every coset scheme as data (see :mod:`repro.coding.engines`).  A name
#: ``<name>-<bits>`` builds the first spec of that name supporting the block size.
COSET_SPECS = (
    # Flip-N-Write writes a block as is (C1) or complemented: the default
    # state of symbol ``3 - s`` is ``C3[s]``.  One flip bit per block.
    CosetSpec("fnw", np.stack([C1, C3]), "cheapest", "bits", 128),
    CosetSpec("6cosets", SIX_COSETS, "cheapest", "pairs", 512),
    CosetSpec("4cosets", FOUR_COSETS, "cheapest", "cells", 512),
    CosetSpec("3cosets", THREE_COSETS, "cheapest", "cells", 512),
    CosetSpec("3-r-cosets", THREE_COSETS, "restricted", "bits", 16),
    CosetSpec("wlc+4cosets", FOUR_COSETS, "cheapest", "reclaimed", 32, _INDEX_BITS),
    CosetSpec("wlc+3cosets", THREE_COSETS, "cheapest", "reclaimed", 32, _INDEX_BITS),
    # WLCRC reclaims the family bit plus a selector per block; with 8-bit
    # blocks the top block is compressed away and needs none.  Its ``-mo``
    # variant picks families by the Section VIII-D endurance objective.
    CosetSpec(
        "wlcrc", THREE_COSETS, "restricted", "reclaimed", 16, {8: 8, 16: 5, 32: 3},
        multi_objective=True,
    ),
    # A 64-bit block is a whole word, which leaves no family to choose: the
    # paper's degenerate WLCRC-64 stores the C1-C3 index, and its threshold
    # has nothing to pick.
    CosetSpec("wlcrc", THREE_COSETS, "cheapest", "reclaimed", 64, {64: 2}, multi_objective=True),
)


def _split_granularity(name: str, prefix: str) -> Optional[int]:
    """Parse ``prefix`` or ``prefix-<bits>`` and return the granularity (or None)."""
    if name == prefix:
        return 0
    if name.startswith(prefix + "-"):
        suffix = name[len(prefix) + 1:]
        if suffix.isdigit():
            return int(suffix)
    return None


def coset_encoder(
    prefix: str,
    granularity_bits: int,
    energy_model: EnergyModel = DEFAULT_ENERGY_MODEL,
    endurance_threshold: Optional[float] = None,
) -> CosetEngine:
    """The coset scheme ``prefix`` at ``granularity_bits``, built from its spec.

    The first spec of that name supporting the block size is built (else the
    first of the name, whose engine rejects the block size).
    """
    specs = [spec for spec in COSET_SPECS if spec.name == prefix]
    if not specs:
        raise ConfigurationError(f"unknown coset scheme: {prefix!r}")
    spec = next((s for s in specs if granularity_bits in s.granularities), specs[0])
    engine = WLCCosetEncoder if spec.aux == "reclaimed" else CosetEncoder
    return engine(spec, granularity_bits, energy_model, endurance_threshold)


def make_scheme(name: str, energy_model: EnergyModel = DEFAULT_ENERGY_MODEL) -> WriteEncoder:
    """Instantiate an encoding scheme by its paper name."""
    key = name.strip().lower()
    fixed = {
        "baseline": BaselineEncoder,
        "flipmin": FlipMinEncoder,
        "din": DINEncoder,
        "coc+4cosets": COCFourCosetsEncoder,
    }
    if key in fixed:
        return fixed[key](energy_model=energy_model)
    threshold = None
    if key.endswith("-mo"):  # only a multi-objective spec takes the threshold
        key, threshold = key[:-3], DEFAULT_ENDURANCE_THRESHOLD
    for spec in COSET_SPECS:
        granularity = _split_granularity(key, spec.name)
        if granularity is not None:
            bits = granularity or spec.default_bits
            return coset_encoder(spec.name, bits, energy_model, threshold)
    raise ConfigurationError(f"unknown scheme name: {name!r}")


def available_schemes() -> List[str]:
    """Canonical list of scheme names accepted by :func:`make_scheme`."""
    return [
        "baseline",
        "fnw",
        "flipmin",
        "din",
        "6cosets",
        "4cosets",
        "3cosets-16",
        "3-r-cosets-16",
        "coc+4cosets",
        "wlc+4cosets",
        "wlc+3cosets",
        "wlcrc-8",
        "wlcrc-16",
        "wlcrc-32",
        "wlcrc-64",
        "wlcrc-16-mo",
    ]
