"""The ramulator2 block parser against the per-line parser it falls back to.

``iter_ramulator_addresses`` parses each 64 KiB block with numpy and hands
any block outside the canonical grammar to the per-line parser.  Every
input here must give the same addresses -- or the same ``TraceError``,
message and line number -- three ways: by default, with the block path
declining every block, and with the per-line parser over the whole file.
"""

import numpy as np
import pytest

from repro.core.errors import TraceError
from repro.traces import ingest
from repro.traces.ingest import MAX_ACCESS_BYTES, parse_ramulator_trace

TOP = 2**64 - 64


def parse_result(path):
    try:
        return parse_ramulator_trace(path).tolist()
    except TraceError as exc:
        return f"TraceError: {exc}"


def per_line_result(path):
    try:
        return ingest._ramulator_line_addresses(path, ingest._clean_lines(path))
    except TraceError as exc:
        return f"TraceError: {exc}"


def assert_paths_agree(path, monkeypatch):
    default = parse_result(path)
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_parse_block", lambda block: None)
        declined = parse_result(path)
    assert default == declined
    assert default == per_line_result(path)
    return default


#: name -> file contents; each is parsed at the real block size and at a
#: 37-byte block, which puts block edges inside most lines.
ADVERSARIAL = {
    "crlf": b"W 0x40 0x40\r\nR 0x80\r\nST 0xC0 0x80\r\n",
    "lone cr": b"W 0x40 0x40\rW 0x80\nW 0xZZ\n",
    "lone cr then crlf": b"W 0x40\r\r\nW 0x80\nW 0x1 0x1 0x1 0x1\n",
    "tabs and leading spaces": b"\tW\t0x40\t0x40\n   W   0x1000  \n \t R 0x1\n",
    "comments and blanks": b"# head\n\n   \n  # indented W 0x1\nW 0x40 0x40\n#\n\nW 0x80\n",
    "lowercase ops": b"w 0x40\nr 0x80\nst 0xC0\nld 0x100\nSt 0x140\nlD 0x180\nW 0x1c0\n",
    "upper prefix": b"W 0X40 0X80\nW 0Xabc 0XFF\n",
    "bare hex": b"W 40 80\nW abcdef\nW 0 0\n",
    "missing zero and multi-line sizes": b"W 0x1\nW 0x40 0x0\nW 0x3F 0x2\nW 0x10 0x1000\nW 0x7 0\n",
    "max access": f"W 0x1 0x{MAX_ACCESS_BYTES:X}\n".encode(),
    "max access + 1": f"W 0x40 0x40\nW 0x1 0x{MAX_ACCESS_BYTES + 1:X}\n".encode(),
    "max access - 1": f"W 0x1 0x{MAX_ACCESS_BYTES - 1:X}\n".encode(),
    "top line": f"W 0x{TOP:X} 0x40\nW 0x{TOP + 63:X} 0x1\nW 0x{TOP:X}\n".encode(),
    "past the top": f"W 0x40\nW 0x{TOP + 1:X} 0x40\n".encode(),
    "last byte, default size": f"W 0x{2**64 - 1:X}\n".encode(),
    "read past the top": f"R 0x{2**64 - 1:X} 0xFFFFFFFF\nW 0x40\n".encode(),
    "beyond 64 bits": b"W 0x1FFFFFFFFFFFFFFFF 0x40\n",
    "17 digits": b"W 0x00000000000000040 0x40\n",
    "16 digits": b"W 0x0000000000000040 0x0000000000000040\n",
    "underscore": b"W 0x40 0x40\nW 0x1_000 0x40\n",
    "plus": b"W +0x40\n",
    "minus address": b"W -8 0x40\n",
    "minus size": b"W 0x40 -0x10\n",
    "bare prefix": b"W 0x 0x40\n",
    "double prefix": b"W 0x0x40\n",
    "non-ascii": "W 0x40 0x40\nW 0x80 0x40 # café\n".encode(),
    "non-ascii comment": "# café\nW 0x40\n".encode(),
    "nbsp separator": "W\u00a00x40\n".encode(),
    "invalid utf-8": b"W 0x40\n\xff\xfe\nW 0x80\n",
    "vertical tab": b"W\x0b0x40\x0b0x40\n",
    "file separator": b"W\x1c0x40\n",
    "nul": b"W 0x40\x00\n",
    "four fields": b"W 0x40 0x40 junk\n",
    "four fields on a read": b"R 0x40 0x40 junk\nW 0x80\n",
    "lone op": b"W\n",
    "lone read op": b"R\nW 0x40\n",
    "bad op": b"W 0x40\nX 0x80 0x40\n",
    "comment glued to field": b"W 0x40 #c\n",
    "no trailing newline": b"W 0x40 0x40\nW 0x80",
    "no trailing newline, cr": b"W 0x40 0x40\nW 0x80\r",
    "empty": b"",
    "only comments": b"# a\n# b\n",
}


@pytest.fixture(params=[37, 1 << 16], ids=["block37", "block64k"])
def block_bytes(request, monkeypatch):
    monkeypatch.setattr(ingest, "_BLOCK_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_inputs_agree(name, tmp_path, monkeypatch, block_bytes):
    path = tmp_path / "t.trace"
    path.write_bytes(ADVERSARIAL[name])
    assert_paths_agree(path, monkeypatch)


def random_line(rng: np.random.Generator, clean: bool) -> str:
    """One ramulator2 line; ``clean`` lines all parse, the others may not."""
    op = str(rng.choice(["W", "R", "ST", "LD", "w", "r", "st", "ld"]))
    size = int(rng.choice([0, 1, 63, 64, 65, 128, 256, 4096]))
    size_text = str(rng.choice([f"0x{size:X}", f"{size:x}", ""]))
    if rng.random() < 0.9:
        addr = int(rng.integers(0, 1 << 40))
    else:  # an access that ends in the last line of the 64-bit space
        addr = 2**64 - (size if size and size_text else 64) - int(rng.integers(0, 64))
    addr_text = str(rng.choice([f"0x{addr:X}", f"0x{addr:x}", f"0X{addr:X}", f"{addr:x}"]))
    sep = str(rng.choice([" ", "\t", "  ", " \t"]))
    line = sep.join(filter(None, [op, addr_text, size_text]))
    if rng.random() < 0.1:
        line = str(rng.choice(["", "   ", "# comment W 0x40", "\t# x"]))
    if not clean and rng.random() < 0.02:
        line = str(rng.choice([
            "X 0x40", "W 0x_40", "W", "W 0x40 0x40 0x40", "W 0x40 -1", "W 0x1FFFFFFFFFFFFFFFF",
            f"W 0x40 0x{MAX_ACCESS_BYTES + 1:X}", "W 0xg0", "W é", "W\x0c0x40", "R 0x40 junk junk",
        ]))
    return line


@pytest.mark.parametrize("seed", range(12))
def test_seeded_random_files_agree(seed, tmp_path, monkeypatch, block_bytes):
    rng = np.random.default_rng(seed)
    clean = seed % 2 == 0
    lone_cr = 0.0 if seed % 3 else 0.02
    endings = ["\n", "\r\n", "\r"]
    text = "".join(
        random_line(rng, clean) + str(rng.choice(endings, p=[0.9 - lone_cr, 0.1, lone_cr]))
        for _ in range(int(rng.integers(100, 1200)))
    )
    path = tmp_path / "t.trace"
    path.write_bytes(text.encode("utf-8"))
    result = assert_paths_agree(path, monkeypatch)
    if clean:
        assert isinstance(result, list) and result


def test_error_line_numbers_carry_across_blocks(tmp_path, monkeypatch):
    """An error after several real 64 KiB blocks names its line in the file."""
    lines = [f"W 0x{64 * i:X} 0x40" for i in range(20_000)]
    lines[15_000] = "W 0x40 0xZZ"
    path = tmp_path / "t.trace"
    path.write_text("\r\n".join(lines) + "\n")
    assert path.stat().st_size > 4 * ingest._BLOCK_BYTES
    result = assert_paths_agree(path, monkeypatch)
    assert result.startswith("TraceError:") and f":{15_001}:" in result


def test_canonical_blocks_take_the_block_path(tmp_path, monkeypatch):
    """The oracle above is only as good as the share of blocks it covers."""
    rng = np.random.default_rng(1)
    path = tmp_path / "t.trace"
    path.write_text("".join(random_line(rng, clean=True) + "\r\n" for _ in range(6_000)))
    outcomes = []
    parse = ingest._parse_block

    def recording_parse(block):
        addresses = parse(block)
        outcomes.append(addresses is not None)
        return addresses

    monkeypatch.setattr(ingest, "_parse_block", recording_parse)
    parse_ramulator_trace(path)
    assert len(outcomes) >= 2 and all(outcomes)


@pytest.mark.parametrize("name, canonical", [
    ("crlf", True), ("tabs and leading spaces", True), ("comments and blanks", True),
    ("lowercase ops", True), ("upper prefix", True), ("missing zero and multi-line sizes", True),
    ("max access", True), ("top line", True), ("no trailing newline", True),
    ("lone cr", False), ("four fields", False), ("17 digits", False), ("underscore", False),
    ("plus", False), ("minus address", False), ("non-ascii", False), ("vertical tab", False),
    ("file separator", False), ("max access + 1", False), ("past the top", False),
    ("lone op", False),
])
def test_grammar_boundary(name, canonical):
    assert (ingest._parse_block(ADVERSARIAL[name]) is not None) == canonical
