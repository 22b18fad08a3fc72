"""graph6 text format (short form, n <= 62).

One graph per line: chr(n+63) followed by the upper triangle of the
adjacency matrix read column by column (bit (i,j) for i<j comes before
all bits of column j+1), packed big-endian into 6-bit groups, each group
emitted as chr(group+63). Unused trailing bits must be zero.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Graph, max_vertices

HEADER = ">>graph6<<"

_MIN_CHAR = 63
_MAX_CHAR = 126


class Graph6ParseError(ValueError):
    """Malformed graph6 input; the message names the offending byte offset."""


def parse_graph6(line: str) -> Graph:
    """Decode one short-form graph6 string (no header) into a Graph."""
    text = line.rstrip("\n")
    if not text:
        raise Graph6ParseError("empty graph6 string (byte 0)")
    first = ord(text[0])
    if first == 126:
        raise Graph6ParseError("long-form graph6 (n > 62) not supported (byte 0)")
    if not _MIN_CHAR <= first <= _MAX_CHAR:
        raise Graph6ParseError(f"character {text[0]!r} out of range 63..126 (byte 0)")
    n = first - 63
    if n == 0:
        raise Graph6ParseError("graphs of order 0 not supported (byte 0)")
    if n > max_vertices():
        raise Graph6ParseError(f"order {n} exceeds the configured cap (byte 0)")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(text) - 1 != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} data characters for n={n}, got {len(text) - 1} (byte {len(text)})"
        )
    groups = []
    for pos, ch in enumerate(text[1:], start=1):
        code = ord(ch)
        if not _MIN_CHAR <= code <= _MAX_CHAR:
            raise Graph6ParseError(f"character {ch!r} out of range 63..126 (byte {pos})")
        groups.append(code - 63)
    masks = [0] * n
    bit_index = 0
    # column-major upper triangle: column j holds bits for i = 0..j-1
    for j in range(1, n):
        for i in range(j):
            if groups[bit_index // 6] >> (5 - bit_index % 6) & 1:
                masks[i] |= 1 << j
                masks[j] |= 1 << i
            bit_index += 1
    pad = 6 * nbytes - nbits
    if pad and groups and groups[-1] & ((1 << pad) - 1):
        raise Graph6ParseError(f"nonzero padding bits (byte {len(text) - 1})")
    return Graph.from_adjacency(masks)


def emit_graph6(g: Graph) -> str:
    """Encode a Graph as a short-form graph6 string (requires n <= 62)."""
    n = g.n
    if n > 62:
        raise ValueError(f"short-form graph6 is limited to n <= 62, got {n}")
    bits = []
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            bits.append(col >> i & 1)
    out = [chr(n + 63)]
    for start in range(0, len(bits), 6):
        group = 0
        chunk = bits[start:start + 6]
        chunk += [0] * (6 - len(chunk))
        for b in chunk:
            group = group << 1 | b
        out.append(chr(group + 63))
    return "".join(out)


def iter_graph6(lines: Iterable[str]) -> Iterator[Graph]:
    """Parse a stream of graph6 lines, skipping blanks and an optional header."""
    for line in lines:
        text = line.strip()
        if not text or text == HEADER:
            continue
        if text.startswith(HEADER):
            text = text[len(HEADER):]
            if not text:
                continue
        yield parse_graph6(text)
