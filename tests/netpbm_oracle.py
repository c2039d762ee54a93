"""Reference NetPBM parser with a byte-by-byte lexer.

A separate code path from `ppst.encoding._parse_netpbm`, which reads the
header with one regular expression and strips the comments of an ASCII
raster with another; the fuzz test in test_encoding.py checks that both give
the same array or the same error on random inputs.

A comment runs from "#" to the next CR or LF, or to the end of the file. It
may follow any token directly, also maxval and the samples of P2/P3.
"""

import numpy as np


def parse_netpbm(data):
    magic = data[:2].decode()
    pos = 2

    def at(chars):
        return pos < len(data) and data[pos: pos + 1] in chars

    def skip_comment():
        nonlocal pos
        while pos < len(data) and not at((b"\r", b"\n")):
            pos += 1

    def next_token():
        """The next token (b"" at the end), with the comment glued to it skipped."""
        nonlocal pos
        while pos < len(data) and (data[pos: pos + 1].isspace() or at((b"#",))):
            if at((b"#",)):
                skip_comment()
            else:
                pos += 1
        start = pos
        while pos < len(data) and not data[pos: pos + 1].isspace() and not at((b"#",)):
            pos += 1
        token = data[start:pos]
        if at((b"#",)):
            skip_comment()
        return token

    fields = []
    while len(fields) < 3:
        token = next_token()
        if not token:
            raise ValueError("truncated header")
        fields.append(int(token))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ValueError("bad dimensions")
    if not 0 < maxval <= 255:
        raise ValueError(f"maxval {maxval} is not supported (8-bit samples only)")
    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels
    if magic in ("P5", "P6"):
        pos += 1  # the one whitespace byte after maxval, or after its glued comment
        raw = data[pos: pos + count]
        if len(raw) != count:
            raise ValueError("truncated pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8)
    else:
        values = []
        while token := next_token():
            values.append(token)
        if len(values) < count:
            raise ValueError("truncated pixel data")
        pixels = np.array([int(v) for v in values[:count]], dtype=np.int32)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError("pixel out of range")
    pixels = pixels.astype(np.uint8, copy=False)
    return pixels.reshape((height, width) if channels == 1 else (height, width, 3))
