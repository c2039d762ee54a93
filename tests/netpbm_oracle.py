"""Reference NetPBM parser with a byte-by-byte header lexer.

A separate code path from `ppst.encoding._parse_netpbm`, which reads the same
header with one regular expression; the fuzz test in test_encoding.py checks
that both give the same array or the same error on random inputs.
"""

import numpy as np


def parse_netpbm(data):
    magic = data[:2].decode()
    pos = 2
    fields = []

    def next_token():
        nonlocal pos
        while True:
            while pos < len(data) and data[pos: pos + 1].isspace():
                pos += 1
            if pos < len(data) and data[pos: pos + 1] == b"#":
                while pos < len(data) and data[pos: pos + 1] != b"\n":
                    pos += 1
                continue
            break
        start = pos
        while pos < len(data) and not data[pos: pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError("truncated header")
        return data[start:pos]

    while len(fields) < 3:
        fields.append(int(next_token()))
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise ValueError("bad dimensions")
    if not 0 < maxval <= 255:
        raise ValueError(f"maxval {maxval} is not supported (8-bit samples only)")
    channels = 3 if magic in ("P3", "P6") else 1
    count = width * height * channels
    if magic in ("P5", "P6"):
        pos += 1  # single whitespace after maxval
        raw = data[pos: pos + count]
        if len(raw) != count:
            raise ValueError("truncated pixel data")
        pixels = np.frombuffer(raw, dtype=np.uint8)
    else:
        values = data[pos:].split()
        if len(values) < count:
            raise ValueError("truncated pixel data")
        pixels = np.array([int(v) for v in values[:count]], dtype=np.int32)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError("pixel out of range")
    pixels = pixels.astype(np.uint8, copy=False)
    return pixels.reshape((height, width) if channels == 1 else (height, width, 3))
