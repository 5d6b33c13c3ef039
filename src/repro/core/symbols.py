"""Symbol-level representation of MLC PCM memory lines.

A 512-bit memory line is stored in 256 4-level (2-bit) PCM cells.  Throughout
the library a *symbol* is the 2-bit value held by one cell and a *state* is the
physical resistance level (S1..S4) the cell is programmed to.  This module
provides the constants and the packing/unpacking routines between the three
representations used by the code base:

* **words** -- ``numpy`` arrays of shape ``(..., 8)`` and dtype ``uint64``,
  one 64-bit machine word per entry, word 0 being the least significant word
  of the line.  This is the canonical in-memory form of a line batch and the
  form used by the compression substrates.
* **symbols** -- arrays of shape ``(..., 256)`` and dtype ``uint8`` holding the
  2-bit symbol values ``0..3``.  Symbol ``j`` of word ``i`` holds bits
  ``(2j+1, 2j)`` of that word, and symbols are laid out word-major so that a
  contiguous slice of the symbol array always corresponds to a contiguous bit
  range of the line.  This is the form used by the coset encoders and by the
  energy / endurance / disturbance models.
* **bytes** -- arrays of shape ``(..., 64)`` and dtype ``uint8``, byte 0 being
  the least significant byte of word 0.  Used by byte-oriented compressors
  (FPC, BDI, COC).

The coset encoders work on *state bytes*: four cells per byte, cell ``4k+j``
in bits ``2j..2j+1`` of byte ``k``.  A line's bytes (:func:`symbol_bytes`)
hold its symbols in exactly that layout, so a 256-entry table maps four
symbols to four states at once; :func:`pack_state_bytes` and
:func:`unpack_state_bytes` convert between cell states and state bytes.
Encoded batches and the metric reduction stay on state bytes:
:func:`changed_cells` marks rewritten cells in the ``uint64`` words of the
bytes, :func:`count_states` counts the marked cells in each state, and
:func:`cell_nibbles` folds the marks of each byte into four bits.

All functions are fully vectorised over leading batch dimensions.
"""

from __future__ import annotations

import numpy as np

#: Number of bits in a PCM memory line (cache-line sized).
BITS_PER_LINE = 512
#: Number of 64-bit words per memory line.
WORDS_PER_LINE = 8
#: Number of bits per machine word.
BITS_PER_WORD = 64
#: Number of 2-bit symbols (MLC cells) per memory line.
SYMBOLS_PER_LINE = 256
#: Number of 2-bit symbols per 64-bit word.
SYMBOLS_PER_WORD = 32
#: Number of bytes per memory line.
BYTES_PER_LINE = 64
#: Number of bytes per 64-bit word.
BYTES_PER_WORD = 8

#: Bit patterns of the four symbols, indexed by symbol value.
SYMBOL_BIT_PATTERNS = ("00", "01", "10", "11")

#: The low bit of every cell's field in a little-endian word of state bytes.
CELL_LOW_BITS = np.uint64(0x5555_5555_5555_5555)
_PAIR_BITS = np.uint64(0x3333_3333_3333_3333)
_LOW_NIBBLES = np.uint64(0x0F0F_0F0F_0F0F_0F0F)

_SYMBOL_SHIFTS = np.arange(SYMBOLS_PER_WORD, dtype=np.uint64) * np.uint64(2)
# Entry ``b`` holds the four cells of state byte ``b`` as the little-endian
# bytes of one uint32, so a single gather unpacks a byte into four cells.
_CELLS_OF_BYTE = (
    ((np.arange(256, dtype="<u4")[:, None] >> np.arange(0, 8, 2, dtype="<u4")) & 3)
    << np.arange(0, 32, 8, dtype="<u4")
).sum(axis=1, dtype="<u4")


def _as_word_array(words: np.ndarray) -> np.ndarray:
    """Validate and coerce ``words`` into a ``uint64`` array of full lines."""
    arr = np.asarray(words, dtype=np.uint64)
    if arr.shape[-1] != WORDS_PER_LINE:
        raise ValueError(
            f"expected last dimension of {WORDS_PER_LINE} words, got shape {arr.shape}"
        )
    return arr


def words_to_symbols(words: np.ndarray) -> np.ndarray:
    """Unpack 64-bit words into 2-bit symbols.

    Parameters
    ----------
    words:
        Array of shape ``(..., 8)`` and dtype ``uint64``.

    Returns
    -------
    numpy.ndarray
        Array of shape ``(..., 256)`` and dtype ``uint8`` with values in
        ``0..3``.  Symbol ``32*i + j`` holds bits ``(2j+1, 2j)`` of word ``i``.
    """
    arr = _as_word_array(words)
    expanded = arr[..., :, None] >> _SYMBOL_SHIFTS
    symbols = (expanded & np.uint64(3)).astype(np.uint8)
    return symbols.reshape(arr.shape[:-1] + (SYMBOLS_PER_LINE,))


def symbols_to_words(symbols: np.ndarray) -> np.ndarray:
    """Pack 2-bit symbols back into 64-bit words (inverse of :func:`words_to_symbols`)."""
    arr = np.asarray(symbols)
    if arr.shape[-1] != SYMBOLS_PER_LINE:
        raise ValueError(
            f"expected last dimension of {SYMBOLS_PER_LINE} symbols, got shape {arr.shape}"
        )
    if arr.dtype != np.uint64:
        arr = arr.astype(np.uint64)
    grouped = arr.reshape(arr.shape[:-1] + (WORDS_PER_LINE, SYMBOLS_PER_WORD))
    shifted = grouped << _SYMBOL_SHIFTS
    return shifted.sum(axis=-1, dtype=np.uint64)


def words_to_bytes(words: np.ndarray) -> np.ndarray:
    """Unpack 64-bit words into bytes (little-endian within each word)."""
    return symbol_bytes(words).copy()


def bytes_to_words(data: np.ndarray) -> np.ndarray:
    """Pack bytes back into 64-bit words (inverse of :func:`words_to_bytes`).

    The little-endian word view of the bytes, returned as a fresh array.
    """
    arr = np.ascontiguousarray(data, dtype=np.uint8)
    if arr.shape[-1] != BYTES_PER_LINE:
        raise ValueError(
            f"expected last dimension of {BYTES_PER_LINE} bytes, got shape {arr.shape}"
        )
    return arr.view("<u8").astype(np.uint64)


def symbol_bytes(words: np.ndarray) -> np.ndarray:
    """Read-only ``(..., 64)`` symbol bytes of ``(..., 8)`` words.

    This is the words' little-endian byte view (no copy for contiguous
    native input): byte ``k`` holds symbols ``4k..4k+3``, symbol ``4k+j`` in
    bits ``2j..2j+1``, the layout of a state byte.
    """
    arr = np.ascontiguousarray(_as_word_array(words), dtype="<u8")
    view = arr.view(np.uint8).reshape(arr.shape[:-1] + (BYTES_PER_LINE,))
    view.flags.writeable = False
    return view


def pack_state_bytes(states: np.ndarray) -> np.ndarray:
    """Pack ``(..., 4m)`` cell states (``0..3``) into ``(..., m)`` state bytes."""
    # Cells 4k..4k+3 are the bytes of one little-endian uint32 ``v``: the
    # state byte is the low byte of ``v | v >> 6 | v >> 12 | v >> 18``.
    four = np.ascontiguousarray(states, dtype=np.uint8).view("<u4")
    pairs = four | four >> 6
    return (pairs | pairs >> 12).astype(np.uint8)


def unpack_state_bytes(state_bytes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_state_bytes`: ``(..., m)`` bytes to ``(..., 4m)`` cells."""
    return _CELLS_OF_BYTE.take(np.asarray(state_bytes, dtype=np.uint8)).view(np.uint8)


def changed_cells(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``(n, 8)`` *cell marks* of the cells in which ``(n, 64)`` state bytes differ.

    Cell marks are words of the bytes' little-endian word view with bit
    ``2j`` of word ``w`` (the low bit of the cell's field) set for a marked
    cell ``32w + j``; every odd bit is clear.
    """
    diff = (new ^ old).view("<u8")
    return (diff | diff >> np.uint64(1)) & CELL_LOW_BITS


def cell_nibbles(marks: np.ndarray) -> np.ndarray:
    """``(n, 64)`` bytes of ``(n, 8)`` cell marks, cells ``4k..4k+3`` in bits 0..3 of byte ``k``."""
    pairs = (marks | marks >> np.uint64(1)) & _PAIR_BITS
    return ((pairs | pairs >> np.uint64(2)) & _LOW_NIBBLES).view(np.uint8)


def count_states(state_bytes: np.ndarray, marks: np.ndarray) -> np.ndarray:
    """``(4,)`` ``int64``: how many of the cells ``marks`` marks are in each state.

    ``marks`` are ``(n, 8)`` cell marks (:func:`changed_cells`) over the
    ``(n, 64)`` ``state_bytes``.  A cell in state ``s`` has field ``s``, so
    the marked cells with the low bit, with the high bit and with both bits
    set give states 1, 2 and 3 by exact integer popcounts of the words.
    """
    words = state_bytes.view("<u8")
    low = words & marks
    high = (words >> np.uint64(1)) & marks
    top = low & high
    every, low, high, top = (
        int(np.bitwise_count(x).sum(dtype=np.int64)) for x in (marks, low, high, top)
    )
    return np.array([every - low - high + top, low - top, high - top, top], dtype=np.int64)


def words_to_bits(words: np.ndarray) -> np.ndarray:
    """Unpack 64-bit words into individual bits.

    Returns an array of shape ``(..., 512)`` and dtype ``uint8`` where bit
    ``64*i + j`` is bit ``j`` (counting from the LSB) of word ``i``.
    """
    arr = _as_word_array(words)
    shifts = np.arange(BITS_PER_WORD, dtype=np.uint64)
    expanded = arr[..., :, None] >> shifts
    bits = (expanded & np.uint64(1)).astype(np.uint8)
    return bits.reshape(arr.shape[:-1] + (BITS_PER_LINE,))


def bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Pack individual bits back into 64-bit words (inverse of :func:`words_to_bits`)."""
    arr = np.asarray(bits)
    if arr.shape[-1] != BITS_PER_LINE:
        raise ValueError(
            f"expected last dimension of {BITS_PER_LINE} bits, got shape {arr.shape}"
        )
    if arr.dtype != np.uint64:
        arr = arr.astype(np.uint64)
    grouped = arr.reshape(arr.shape[:-1] + (WORDS_PER_LINE, BITS_PER_WORD))
    shifts = np.arange(BITS_PER_WORD, dtype=np.uint64)
    shifted = grouped << shifts
    return shifted.sum(axis=-1, dtype=np.uint64)


def bits_to_symbols(bits: np.ndarray) -> np.ndarray:
    """Pack a 512-bit array into 256 symbols (symbol j = bits ``2j+1, 2j``)."""
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.shape[-1] != BITS_PER_LINE:
        raise ValueError(
            f"expected last dimension of {BITS_PER_LINE} bits, got shape {arr.shape}"
        )
    pairs = arr.reshape(arr.shape[:-1] + (SYMBOLS_PER_LINE, 2))
    return (pairs[..., 0] | (pairs[..., 1] << 1)).astype(np.uint8)


def symbols_to_bits(symbols: np.ndarray) -> np.ndarray:
    """Unpack 256 symbols into a 512-bit array (inverse of :func:`bits_to_symbols`)."""
    arr = np.asarray(symbols, dtype=np.uint8)
    if arr.shape[-1] != SYMBOLS_PER_LINE:
        raise ValueError(
            f"expected last dimension of {SYMBOLS_PER_LINE} symbols, got shape {arr.shape}"
        )
    low = (arr & 1).astype(np.uint8)
    high = ((arr >> 1) & 1).astype(np.uint8)
    bits = np.stack([low, high], axis=-1)
    return bits.reshape(arr.shape[:-1] + (BITS_PER_LINE,))


def complement_symbols(symbols: np.ndarray) -> np.ndarray:
    """Bitwise complement at the symbol level (``00<->11`` and ``01<->10``)."""
    return (3 - np.asarray(symbols, dtype=np.uint8)).astype(np.uint8)


def line_from_int(value: int) -> np.ndarray:
    """Build a single line (shape ``(8,)`` ``uint64``) from a Python integer.

    The integer is interpreted as the full 512-bit line value; word 0 receives
    the least significant 64 bits.
    """
    if value < 0 or value >= (1 << BITS_PER_LINE):
        raise ValueError("line value must be an unsigned 512-bit integer")
    mask = (1 << BITS_PER_WORD) - 1
    words = [(value >> (BITS_PER_WORD * i)) & mask for i in range(WORDS_PER_LINE)]
    return np.array(words, dtype=np.uint64)


def line_to_int(words: np.ndarray) -> int:
    """Convert a single line (shape ``(8,)``) back into a Python integer."""
    arr = _as_word_array(words)
    if arr.ndim != 1:
        raise ValueError("line_to_int expects a single line of shape (8,)")
    value = 0
    for i in range(WORDS_PER_LINE):
        value |= int(arr[i]) << (BITS_PER_WORD * i)
    return value
