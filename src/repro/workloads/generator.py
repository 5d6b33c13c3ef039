"""Synthetic memory-line and write-trace generators.

:class:`LineGenerator` produces batches of 512-bit memory lines whose content
follows a :class:`~repro.workloads.profiles.BenchmarkProfile`: every line gets
a content type (zero, sparse, narrow integers, pointers, doubles, text, ...)
and its eight 64-bit words are drawn accordingly.  :class:`TraceGenerator`
turns that into differential-write traces by mutating a fraction of each
line's words per request, which models the value locality that differential
write and the paper's encodings exploit.

All generation is vectorised and driven by a seeded :class:`numpy.random
.Generator`, so traces are fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from ..core.line import LineBatch
from ..core.symbols import WORDS_PER_LINE
from .profiles import BenchmarkProfile, get_profile
from .trace import WriteTrace

#: Version of the trace-generation algorithm.  Bump whenever a change makes
#: generated traces differ for the same (profile, length, seed); the trace
#: corpus folds it into its content-addressed cache keys, so stale on-disk
#: traces are regenerated instead of silently reused.
GENERATOR_VERSION = 1

#: Integer magnitude (in bits) of each magnitude band; see
#: :attr:`BenchmarkProfile.magnitude_bits`.
MAGNITUDE_BANDS = (32, 55, 58)

#: Canonical x86-64 user-space pointer prefix used by the pointer line type.
POINTER_BASE = 0x0000_7F00_0000_0000


def _mask(bits: np.ndarray) -> np.ndarray:
    """Bit masks ``2^bits - 1`` as uint64 (vectorised, bits <= 63)."""
    return (np.uint64(1) << bits.astype(np.uint64)) - np.uint64(1)


def _choice(rng: np.random.Generator, probs: np.ndarray, size) -> np.ndarray:
    """``rng.choice(len(probs), size, p=probs)`` bit for bit, as ``uint8`` indices.

    numpy's CDF and ``rng.random(size)`` draws; an index counts the CDF
    entries at or below its draw (``searchsorted(side='right')``), bar the
    last, exactly 1.0, which no draw reaches.
    """
    cdf = np.cumsum(probs, dtype=np.float64)
    cdf /= cdf[-1]
    draws = rng.random(size)
    index = np.zeros(draws.shape, dtype=np.uint8)
    for edge in cdf[:-1]:
        index += draws >= edge
    return index


#: What a word's new value is made of in a mutation pass: its old value, a
#: value drawn in advance (every action but the two below), the complement
#: of its old value, or its old high half with a drawn low half.
KEEP, DRAWN, COMPLEMENT, LOW_RANDOM = 0, 1, 2, 3


@dataclass(frozen=True)
class MutationPlan:
    """Pre-drawn inputs of one mutation pass (see :meth:`LineGenerator.plan_mutations`)."""

    #: ``(n, 8)`` int8: ``KEEP``, ``DRAWN``, ``COMPLEMENT`` or ``LOW_RANDOM`` per word.
    kind: np.ndarray
    #: ``(n, 8)`` new values of the ``DRAWN`` words.
    drawn: np.ndarray
    #: ``(n, 8)`` low-32-bit fills of the ``LOW_RANDOM`` words.
    low_random: np.ndarray


class LineGenerator:
    """Generate memory-line content following a benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, rng: Optional[np.random.Generator] = None):
        self.profile = profile
        self.rng = rng or np.random.default_rng()
        #: Content types, sorted; a line's type travels as its index here.
        self.type_names = sorted(profile.line_type_mix)
        mix_order = list(profile.line_type_mix)
        self._type_probs = np.array([profile.line_type_mix[t] for t in mix_order])
        self._type_probs = self._type_probs / self._type_probs.sum()
        self._mix_codes = np.array(
            [self.type_names.index(t) for t in mix_order], dtype=np.int8
        )

    # ------------------------------------------------------------------ #
    # Per-type word generators (each returns an (n, 8) uint64 array)
    # ------------------------------------------------------------------ #
    def _magnitudes(self, n: int) -> np.ndarray:
        """Per-line integer magnitude (bits) drawn from the profile's bands."""
        weights = np.asarray(self.profile.magnitude_bits, dtype=np.float64)
        band = _choice(self.rng, weights / weights.sum(), n)
        low = np.where(band == 0, 4, np.where(band == 1, 33, 56))
        high = np.array(MAGNITUDE_BANDS)[band]
        return self.rng.integers(low, high + 1).astype(np.uint64)

    def _raw(self, n: int) -> np.ndarray:
        return self.rng.integers(0, 2**64, size=(n, WORDS_PER_LINE), dtype=np.uint64)

    def _gen_zero(self, n: int) -> np.ndarray:
        return np.zeros((n, WORDS_PER_LINE), dtype=np.uint64)

    def _gen_sparse(self, n: int) -> np.ndarray:
        values = self._raw(n) & np.uint64(0xFFFF)
        keep = self.rng.random((n, WORDS_PER_LINE)) < 0.3
        return values * keep

    def _gen_small_int(self, n: int) -> np.ndarray:
        magnitude = self._magnitudes(n)
        return self._raw(n) & _mask(magnitude)[:, None]

    def _gen_small_neg_int(self, n: int) -> np.ndarray:
        return ~self._gen_small_int(n)

    def _gen_mixed_int(self, n: int) -> np.ndarray:
        positive = self._gen_small_int(n)
        negate = self.rng.random((n, WORDS_PER_LINE)) < 0.4
        return positive ^ (~np.uint64(0) * negate)

    def _gen_packed16(self, n: int) -> np.ndarray:
        """Words made of four 16-bit fields (struct-of-shorts / indices arrays).

        The low three fields mix zeros, small positive shorts and negative
        shorts; the top field stays zero, small or all-ones so the word remains
        WLC-compressible.  This content type is what creates sub-word (16-bit)
        heterogeneity, which fine-granularity encodings exploit.
        """
        # Every field is drawn as uint64 (the draws' stream) and narrowed after.
        shape = (n, WORDS_PER_LINE, 4)
        kind = self.rng.integers(0, 10, size=shape, dtype=np.uint64).astype(np.uint8)
        small = self.rng.integers(0, 256, size=shape, dtype=np.uint64).astype("<u2")
        wide = self.rng.integers(0x4000, 0x8000, size=shape, dtype=np.uint64).astype("<u2")
        # Kinds 0-2 zero, 3-5 the small value, 6-7 its negation (0xFFFF - small,
        # i.e. ~small), 8-9 the wide one; a product with a 0/1 flag selects.
        negative = np.uint16(0xFFFF) * ((kind >= 6) & (kind < 8))
        fields = (small ^ negative) * (kind >= 3)
        fields ^= (fields ^ wide) * (kind >= 8)
        # Keep the top field friendly to WLC: zero, a small value, or all ones.
        top_kind = self.rng.integers(0, 10, size=shape[:2], dtype=np.uint64).astype(np.uint8)
        top = small[..., 3] * (top_kind >= 5)
        fields[..., 3] = top | (np.uint16(0xFFFF) * (top_kind >= 8))
        # Field ``f`` is bits ``16f..16f+15``: the little-endian word view.
        return fields.view("<u8")[..., 0]

    def _gen_pointer(self, n: int) -> np.ndarray:
        """Pointer arrays: user-space addresses, half within one heap region.

        Lines whose pointers all target one region have small word-to-word
        deltas (BDI-compressible); lines mixing regions defeat BDI but remain
        WLC-compressible because the canonical-address prefix keeps the top
        bits constant.
        """
        same_region = self.rng.random((n, 1)) < 0.5
        region_line = (self.rng.integers(0, 2**20, size=(n, 1), dtype=np.uint64)) << np.uint64(20)
        region_word = (self.rng.integers(0, 2**20, size=(n, WORDS_PER_LINE), dtype=np.uint64)) << np.uint64(20)
        region = np.where(same_region, region_line, region_word)
        offsets = (self.rng.integers(0, 2**14, size=(n, WORDS_PER_LINE), dtype=np.uint64)) << np.uint64(3)
        return np.uint64(POINTER_BASE) | region | offsets

    def _gen_float64(self, n: int) -> np.ndarray:
        mantissa = self.rng.integers(0, 2**52, size=(n, WORDS_PER_LINE), dtype=np.uint64)
        exponent = self.rng.integers(1019, 1029, size=(n, WORDS_PER_LINE), dtype=np.uint64)
        sign = self.rng.integers(0, 2, size=(n, WORDS_PER_LINE), dtype=np.uint64)
        return (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa

    def _gen_float32(self, n: int) -> np.ndarray:
        mantissa = self.rng.integers(0, 2**23, size=(n, WORDS_PER_LINE, 2), dtype=np.uint64)
        exponent = self.rng.integers(123, 133, size=(n, WORDS_PER_LINE, 2), dtype=np.uint64)
        sign = self.rng.integers(0, 2, size=(n, WORDS_PER_LINE, 2), dtype=np.uint64)
        singles = (sign << np.uint64(31)) | (exponent << np.uint64(23)) | mantissa
        return singles[..., 0] | (singles[..., 1] << np.uint64(32))

    def _gen_text(self, n: int) -> np.ndarray:
        chars = self.rng.integers(0x20, 0x7F, size=(n, WORDS_PER_LINE, 8), dtype=np.uint64)
        return chars.astype(np.uint8).view("<u8")[..., 0]

    def _gen_random(self, n: int) -> np.ndarray:
        return self._raw(n)

    def generate_words(self, line_type: str, n: int) -> np.ndarray:
        """Generate ``n`` lines of the requested content type."""
        generator = getattr(self, f"_gen_{line_type}", None)
        if generator is None:
            raise ValueError(f"unknown line type {line_type!r}")
        return generator(n)

    # ------------------------------------------------------------------ #
    # Batch generation
    # ------------------------------------------------------------------ #
    def assign_types(self, n: int) -> np.ndarray:
        """Draw a content type for every line of a batch, as ``int8`` codes.

        A code indexes :attr:`type_names`.
        """
        return self._mix_codes[_choice(self.rng, self._type_probs, n)]

    def generate_lines(self, n: int, types: Optional[np.ndarray] = None) -> Tuple[LineBatch, np.ndarray]:
        """Generate ``n`` lines; returns the batch and the per-line type codes."""
        if types is None:
            types = self.assign_types(n)
        words = np.zeros((n, WORDS_PER_LINE), dtype=np.uint64)
        # Types draw their words in name order (ascending codes), the one
        # order that keeps a seeded trace the same in every process.  A
        # stable sort by code lists each type's rows in ascending order.
        counts = np.bincount(types, minlength=len(self.type_names))
        order, ends = np.argsort(types, kind="stable"), np.cumsum(counts)
        for code in np.flatnonzero(counts):
            rows = order[ends[code] - counts[code]:ends[code]]
            words[rows] = self.generate_words(self.type_names[code], int(counts[code]))
        return LineBatch(words), types

    def plan_mutations(self, n: int, types: np.ndarray) -> "MutationPlan":
        """Draw every random input of a mutation pass up front, vectorised.

        The plan holds, for ``n`` prospective writes, the kind of every
        word's new value (which words change, and how, per the profile's
        ``mutation_mix``) and the values drawn for the actions that do not
        depend on the previous word value.  :meth:`apply_mutations` turns a
        plan plus previous values into new values; splitting the two lets
        the trace ingest resolve per-address rewrite chains round by round
        while sharing these exact semantics (and RNG draw order) with
        :meth:`mutate_lines`.
        """
        change = self.rng.random((n, WORDS_PER_LINE)) < self.profile.change_word_fraction
        actions = list(self.profile.mutation_mix.keys())
        probs = np.array([self.profile.mutation_mix[a] for a in actions])
        probs = probs / probs.sum()
        action_index = _choice(self.rng, probs, (n, WORDS_PER_LINE))
        independent = {
            "same_type": self.generate_lines(n, types)[0].words,
            "type_change": self.generate_lines(n)[0].words,
            "ones_fill": ~(self._raw(n) & np.uint64(0xFFFF)),
        }
        low_random = self._raw(n) & np.uint64(0xFFFFFFFF)
        # A 0/1-flag product ORed in selects each word's source (in place: read once).
        drawn = np.zeros((n, WORDS_PER_LINE), dtype=np.uint64)  # zero_fill
        for index, action in enumerate(actions):
            if action in independent:
                source = independent[action]
                source *= action_index == index
                drawn |= source
        kinds = {"complement": COMPLEMENT, "low_random": LOW_RANDOM}
        kind_of = np.array([kinds.get(a, DRAWN) for a in actions], dtype=np.int8)
        # np.where, not a flag product: the product's heap placement added 2 MB of peak RSS.
        kind = np.where(change, kind_of[action_index], np.int8(KEEP))
        return MutationPlan(kind=kind, drawn=drawn, low_random=low_random)

    def apply_mutations(
        self,
        plan: "MutationPlan",
        words: np.ndarray,
        rows: Union[slice, np.ndarray] = slice(None),
    ) -> np.ndarray:
        """New word values for ``words`` under rows ``rows`` of ``plan``.

        ``words`` are the previous values of the selected writes (the
        complement / low-random actions transform them); the other actions
        take their values from the plan.
        """
        kind = plan.kind[rows]
        # Each word's kind picks one value: a product with a 0/1 flag, ORed in.
        value = words * (kind == KEEP)
        value |= plan.drawn[rows] * (kind == DRAWN)
        value |= ~words * (kind == COMPLEMENT)
        low = (words & ~np.uint64(0xFFFFFFFF)) | plan.low_random[rows]
        value |= low * (kind == LOW_RANDOM)
        return value

    def mutate_lines(self, lines: LineBatch, types: np.ndarray) -> LineBatch:
        """Produce the next write value of each line (differential-write locality).

        A fraction of each line's words (``change_word_fraction``) is
        rewritten; the value each rewritten word receives is drawn from the
        profile's ``mutation_mix``: a nearby value of the same content type, a
        zero fill, a small negative value (run of ones), the complement of the
        previous value (sign change), a value of a fresh content type, or a
        word whose low half is re-randomised.  The zero/ones/complement
        actions are what give the written cells the strong ``00``/``11`` bias
        the paper observes in real workloads.
        """
        plan = self.plan_mutations(len(lines), types)
        return LineBatch(self.apply_mutations(plan, lines.words))


class TraceGenerator:
    """Generate differential-write traces for a benchmark profile."""

    def __init__(self, profile: BenchmarkProfile, seed: int = 2018):
        self.profile = profile
        self.seed = seed

    def generate(self, length: int) -> WriteTrace:
        """Generate a trace of ``length`` write requests."""
        # Derive a stable per-benchmark stream from the seed and the name
        # (``hash()`` is salted per process, so it is not used here).
        name_key = sum((i + 1) * ord(c) for i, c in enumerate(self.profile.name)) & 0xFFFF
        rng = np.random.default_rng((self.seed, name_key))
        generator = LineGenerator(self.profile, rng)
        old, types = generator.generate_lines(length)
        new = generator.mutate_lines(old, types)
        return WriteTrace(
            old=old,
            new=new,
            name=self.profile.name,
            metadata={
                "suite": self.profile.suite,
                "memory_intensity": self.profile.memory_intensity,
                "seed": str(self.seed),
            },
        )


def generate_benchmark_trace(name: str, length: int = 20_000, seed: int = 2018) -> WriteTrace:
    """Generate the synthetic write trace of one named benchmark."""
    return TraceGenerator(get_profile(name), seed=seed).generate(length)


def generate_random_trace(length: int = 20_000, seed: int = 2018) -> WriteTrace:
    """Uniformly random (old, new) line pairs -- the paper's 'random workload'."""
    rng = np.random.default_rng(seed)
    old = LineBatch.random(length, rng)
    new = LineBatch.random(length, rng)
    return WriteTrace(old=old, new=new, name="random", metadata={"seed": str(seed)})
