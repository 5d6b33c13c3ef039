"""Binary BCH code used by the DIN baseline and the verify-and-restore model.

DIN [Jiang et al., DSN 2014] appends a 20-bit BCH code capable of correcting
two write-disturbance errors to each compressed-and-expanded memory line.  A
2-error-correcting binary BCH code over GF(2^10) has exactly 20 parity bits
(two degree-10 minimal polynomials), which is what this module implements:

* systematic encoding (data bits followed by parity bits);
* syndrome computation;
* decoding of up to two bit errors with Peterson's direct solution and a
  Chien search over the received positions.

Bit order convention: ``codeword[i]`` is the coefficient of ``x^i``; data bits
occupy the high-degree positions ``r .. r+k-1`` and parity the low positions
``0 .. r-1`` (classic systematic form ``c(x) = d(x)*x^r + rem``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from .gf import GaloisField


def _poly_degree(mask: int) -> int:
    return mask.bit_length() - 1


def _gf2_poly_mod(dividend: int, divisor: int) -> int:
    """Remainder of binary polynomial division (polynomials as bit masks)."""
    divisor_degree = _poly_degree(divisor)
    remainder = dividend
    while remainder.bit_length() - 1 >= divisor_degree and remainder:
        shift = (remainder.bit_length() - 1) - divisor_degree
        remainder ^= divisor << shift
    return remainder


def _gf2_poly_lcm(a: int, b: int) -> int:
    """Least common multiple of two binary polynomials."""
    gcd = _gf2_poly_gcd(a, b)
    quotient, _ = _gf2_poly_divmod(a, gcd)
    return _gf2_poly_multiply(quotient, b)


def _gf2_poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_poly_mod(a, b)
    return a


def _gf2_poly_multiply(a: int, b: int) -> int:
    result = 0
    shift = 0
    while b:
        if b & 1:
            result ^= a << shift
        b >>= 1
        shift += 1
    return result


def _gf2_poly_divmod(dividend: int, divisor: int) -> Tuple[int, int]:
    quotient = 0
    remainder = dividend
    divisor_degree = _poly_degree(divisor)
    while remainder and remainder.bit_length() - 1 >= divisor_degree:
        shift = (remainder.bit_length() - 1) - divisor_degree
        quotient |= 1 << shift
        remainder ^= divisor << shift
    return quotient, remainder


def _remainder_rows(generator: int, parity_bits: int, data_bits: int) -> List[int]:
    """Row ``i`` is ``x^(i + r) mod g(x)`` as an integer bit mask.

    Systematic parity is linear over GF(2), so the parity of ``d(x) * x^r``
    is the XOR of these rows over the set data bits.  Each row follows from
    the previous one by the shift-register step (multiply by x, then reduce
    the degree-r term with g).
    """
    rows = []
    remainder = _gf2_poly_mod(1 << parity_bits, generator)
    for _ in range(data_bits):
        rows.append(remainder)
        remainder <<= 1
        if (remainder >> parity_bits) & 1:
            remainder ^= generator
    return rows


@lru_cache(maxsize=8)
def _parity_byte_table(generator: int, parity_bits: int, data_bits: int) -> np.ndarray:
    """``(ceil(data_bits / 8), 256)`` packed remainders of every data byte value.

    Entry ``[p, v]`` is the XOR of the :func:`_remainder_rows` of the set
    bits of data byte ``p`` when it holds ``v``.  Read-only and cached at
    module level per code, never kept on a :class:`BCHCode`: DIN's encoder
    holds one and is pickled into every worker task.
    """
    nbytes = -(-data_bits // 8)
    rows = np.zeros(nbytes * 8, dtype=np.uint64)
    rows[:data_bits] = _remainder_rows(generator, parity_bits, data_bits)
    shifts = np.arange(8, dtype=np.uint64)
    bits = (np.arange(256, dtype=np.uint64)[:, None] >> shifts) & np.uint64(1)  # (256, 8)
    table = np.bitwise_xor.reduce(rows.reshape(nbytes, 1, 8) * bits, axis=-1)
    table = table.astype(np.min_scalar_type((1 << parity_bits) - 1))
    table.flags.writeable = False
    return table


@dataclass
class DecodeResult:
    """Outcome of a BCH decode attempt."""

    corrected: np.ndarray
    error_positions: Tuple[int, ...]
    success: bool


class BCHCode:
    """A binary ``t``-error-correcting BCH code over GF(2^m).

    Parameters
    ----------
    m:
        Field degree; the natural code length is ``2^m - 1``.
    t:
        Number of correctable bit errors.
    data_bits:
        Number of data bits per codeword (the code is shortened to
        ``data_bits + parity_bits``).
    """

    def __init__(self, m: int = 10, t: int = 2, data_bits: int = 492):
        self.field = GaloisField(m)
        self.m = m
        self.t = t
        generator = 1
        for i in range(1, 2 * t, 2):
            generator = _gf2_poly_lcm(generator, self.field.minimal_polynomial(i))
        self.generator_poly = generator
        self.parity_bits = _poly_degree(generator)
        self.natural_length = self.field.order
        if data_bits + self.parity_bits > self.natural_length:
            raise ValueError(
                f"data_bits too large: {data_bits} + {self.parity_bits} parity bits "
                f"exceeds the natural length {self.natural_length}"
            )
        self.data_bits = data_bits

    @property
    def codeword_bits(self) -> int:
        """Total codeword length (data + parity) in bits."""
        return self.data_bits + self.parity_bits

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def parity(self, data: Sequence[int]) -> np.ndarray:
        """Parity bits of a data-bit sequence (LSB-first, length ``data_bits``)."""
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 1 or data.shape[0] != self.data_bits:
            raise ValueError(f"expected {self.data_bits} data bits, got {data.shape}")
        return self.parity_batch(data.reshape(1, -1))[0]

    def parity_batch(self, data: np.ndarray) -> np.ndarray:
        """Parity bits of a whole ``(n, data_bits)`` bit matrix at once."""
        data = np.asarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[1] != self.data_bits:
            raise ValueError(
                f"expected (n, {self.data_bits}) data bits, got {data.shape}"
            )
        remainders = self.parity_of_bytes(np.packbits(data, axis=1, bitorder="little"))
        shifts = np.arange(self.parity_bits, dtype=remainders.dtype)
        return ((remainders[:, None] >> shifts) & 1).astype(np.uint8)

    def parity_of_bytes(self, data_bytes: np.ndarray) -> np.ndarray:
        """Packed parity (bit ``j`` = parity bit ``j``) of ``(n, ceil(data_bits / 8))`` bytes.

        Table-driven, like a CRC: byte ``p`` holds data bits ``8p..8p+7``
        (LSB first), each byte is one lookup into the code's table of packed
        remainders (:func:`_parity_byte_table`), and XOR-reducing the lookups
        gives each line's remainder -- no per-line carry chain of long
        division.  Bits past ``data_bits`` in the last byte are ignored.
        """
        table = _parity_byte_table(self.generator_poly, self.parity_bits, self.data_bits)
        data_bytes = np.asarray(data_bytes, dtype=np.uint8)
        if data_bytes.ndim != 2 or data_bytes.shape[1] != table.shape[0]:
            raise ValueError(
                f"expected (n, {table.shape[0]}) data bytes, got {data_bytes.shape}"
            )
        offsets = np.arange(table.shape[0]) * 256
        return np.bitwise_xor.reduce(table.take(data_bytes + offsets), axis=1)

    def encode(self, data: Sequence[int]) -> np.ndarray:
        """Systematic codeword: parity bits (positions ``0..r-1``) then data bits."""
        data = np.asarray(data, dtype=np.uint8)
        return np.concatenate([self.parity(data), data])

    # ------------------------------------------------------------------ #
    # Decoding
    # ------------------------------------------------------------------ #
    def syndromes(self, received: Sequence[int]) -> List[int]:
        """The ``2t`` syndromes of a received word (polynomial evaluated at alpha^i)."""
        received = np.asarray(received, dtype=np.uint8)
        positions = np.nonzero(received)[0]
        result = []
        for i in range(1, 2 * self.t + 1):
            value = 0
            for position in positions:
                value ^= self.field.alpha_power(int(position) * i)
            result.append(value)
        return result

    def decode(self, received: Sequence[int]) -> DecodeResult:
        """Correct up to ``t`` bit errors (t = 2 supported) in a received word."""
        received = np.asarray(received, dtype=np.uint8).copy()
        if received.shape[0] != self.codeword_bits:
            raise ValueError(f"expected {self.codeword_bits} bits, got {received.shape[0]}")
        syndromes = self.syndromes(received)
        if all(s == 0 for s in syndromes):
            return DecodeResult(corrected=received, error_positions=(), success=True)
        if self.t != 2:
            raise NotImplementedError("decoding is implemented for t=2 codes")
        gf = self.field
        s1, _, s3, _ = syndromes
        if s1 != 0 and s3 == gf.power(s1, 3):
            position = gf.log(s1)
            if position >= self.codeword_bits:
                return DecodeResult(corrected=received, error_positions=(), success=False)
            received[position] ^= 1
            return DecodeResult(corrected=received, error_positions=(position,), success=True)
        if s1 == 0:
            # Two errors cannot produce S1 = 0 with S3 != 0 for this code; flag failure.
            return DecodeResult(corrected=received, error_positions=(), success=False)
        # Two-error locator polynomial: x^2 + s1*x + (s3 + s1^3) / s1.
        sigma2 = gf.divide(gf.add(s3, gf.power(s1, 3)), s1)
        roots = []
        for position in range(self.codeword_bits):
            x = gf.alpha_power(position)
            value = gf.add(gf.add(gf.multiply(x, x), gf.multiply(s1, x)), sigma2)
            if value == 0:
                roots.append(position)
            if len(roots) == 2:
                break
        if len(roots) != 2:
            return DecodeResult(corrected=received, error_positions=(), success=False)
        for position in roots:
            received[position] ^= 1
        if any(s != 0 for s in self.syndromes(received)):
            return DecodeResult(corrected=received, error_positions=tuple(roots), success=False)
        return DecodeResult(corrected=received, error_positions=tuple(roots), success=True)
