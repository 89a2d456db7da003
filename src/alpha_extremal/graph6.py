"""graph6 text codec.

Standard single-byte-header graph6 only (orders 0..62): header byte 63+n,
then the upper-triangle bits in column order (0,1),(0,2),(1,2),(0,3),...
packed big-endian six per byte, each 6-bit group offset by 63.
"""

from __future__ import annotations

from .graphs import Graph

_OFFSET = 63
_MAX_ORDER = 62


class Graph6Error(ValueError):
    """Malformed graph6 text; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (order <= 62)."""
    if g.n > _MAX_ORDER:
        raise ValueError(f"graph6 single-byte header supports order <= {_MAX_ORDER}, got {g.n}")
    out = [chr(_OFFSET + g.n)]
    group = 0
    nbits = 0
    for v in range(1, g.n):
        col = g.adj[v]
        for u in range(v):
            group = group << 1 | (col >> u & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(_OFFSET + group))
                group = 0
                nbits = 0
    if nbits:
        out.append(chr(_OFFSET + (group << (6 - nbits))))
    return "".join(out)


def decode_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 string; raises Graph6Error with an offset on bad input."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    text = text.strip()
    if text.startswith(">>graph6<<"):
        text = text[len(">>graph6<<"):]
    if not text:
        raise Graph6Error("empty graph6 string", 0)
    header = ord(text[0])
    if not _OFFSET <= header <= 126:
        raise Graph6Error(f"header byte {header} outside 63..126", 0)
    n = header - _OFFSET
    if n > _MAX_ORDER:
        raise Graph6Error(f"order {n} beyond single-byte graph6 range", 0)
    need = (n * (n - 1) // 2 + 5) // 6
    body = text[1:]
    if len(body) != need:
        raise Graph6Error(
            f"expected {need} payload bytes for order {n}, got {len(body)}", 1 + min(len(body), need)
        )
    bits = 0
    for i, ch in enumerate(body):
        byte = ord(ch)
        if not _OFFSET <= byte <= 126:
            raise Graph6Error(f"payload byte {byte} outside 63..126", 1 + i)
        bits = bits << 6 | (byte - _OFFSET)
    total = 6 * need
    adj = [0] * n
    pos = total - 1  # leftmost bit of the stream
    for v in range(1, n):
        for u in range(v):
            if bits >> pos & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos -= 1
    return Graph(n, tuple(adj))
