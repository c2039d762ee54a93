import hashlib
import random
import re

import numpy as np
import pytest

from netpbm_oracle import parse_netpbm
from ppst.encoding import (_HEADER_TOKEN, EmbeddingCache, HashedNgramEncoder, _parse_netpbm,
                           load_raster, write_pgm)
from ppst.errors import CompatibilityError, InputError
from ppst.synthetic import render_text_image


@pytest.fixture
def encoder():
    return HashedNgramEncoder(embed_dim=32, n_buckets=256, max_text_tokens=8)


def test_text_encoding_deterministic(encoder):
    a = encoder.encode_text("a photo of a cat")
    b = encoder.encode_text("a photo of a cat")
    assert np.array_equal(a, b)
    assert a.dtype == np.float64 and a.shape == (32,)
    # the encoder is a function of its arguments: a rebuilt one is bit-equal
    twin = HashedNgramEncoder(embed_dim=32, n_buckets=256, max_text_tokens=8)
    assert np.array_equal(twin.encode_text("a photo of a cat"), a)
    assert np.array_equal(twin.projection, encoder.projection)


def test_distinct_texts_distinct_vectors(encoder):
    a = encoder.encode_text("a photo of a cat")
    b = encoder.encode_text("a photo of a dog")
    assert not np.array_equal(a, b)


def test_long_text_equals_explicit_truncation(encoder):
    long_text = " ".join(f"tok{i}" for i in range(50))
    truncated = " ".join(f"tok{i}" for i in range(encoder.max_text_tokens))
    a = encoder.encode_text(long_text)
    b = encoder.encode_text(truncated)
    assert np.array_equal(a, b)


def test_empty_text_rejected(encoder):
    with pytest.raises(InputError):
        encoder.encode_text("")
    with pytest.raises(InputError):
        encoder.encode_text("   ")


def test_image_encoding_deterministic(tmp_path, encoder):
    path = render_text_image(tmp_path / "img.pgm", "a red cat on the table")
    a = encoder.encode_image(path)
    b = encoder.encode_image(path)
    assert np.array_equal(a, b)
    assert np.isfinite(a).all()


def test_corrupt_image_raises_input_error(tmp_path, encoder):
    bad = tmp_path / "broken.pgm"
    bad.write_bytes(b"P5 10 10 255\n\x00\x01")   # truncated pixel data
    with pytest.raises(InputError) as err:
        encoder.encode_image(bad)
    assert str(bad) in str(err.value)


def test_missing_image_raises_input_error(tmp_path, encoder):
    with pytest.raises(InputError):
        encoder.encode_image(tmp_path / "nope.pgm")


def test_matching_caption_beats_mismatch(tmp_path, encoder):
    caption = "a red cat sitting on the table"
    other = "squad throttle crossfire recon patrol"
    path = render_text_image(tmp_path / "cat.pgm", caption)
    image = encoder.encode_image(path)

    def cosine(u, v):
        return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))

    match = cosine(image, encoder.encode_text(caption))
    mismatch = cosine(image, encoder.encode_text(other))
    assert match > mismatch


def test_projection_frozen_across_calls(tmp_path, encoder):
    before = encoder.projection.copy()
    encoder.encode_text("a photo of a cat")
    encoder.encode_image(render_text_image(tmp_path / "x.pgm", "a dog"))
    assert np.array_equal(encoder.projection, before)
    assert not encoder.projection.flags.writeable


# ---------------------------------------------------------------------------
# raster parsing


def test_pgm_round_trip(tmp_path):
    pixels = np.arange(48, dtype=np.uint8).reshape(6, 8)
    path = tmp_path / "grid.pgm"
    write_pgm(path, pixels)
    assert np.array_equal(load_raster(path), pixels)


def test_ascii_pgm_with_comments(tmp_path):
    path = tmp_path / "ascii.pgm"
    path.write_text("P2\n# comment line\n3 2\n255\n0 10 20\n30 40 50\n")
    assert np.array_equal(load_raster(path), [[0, 10, 20], [30, 40, 50]])


def test_binary_ppm(tmp_path):
    path = tmp_path / "rgb.ppm"
    pixels = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
    path.write_bytes(b"P6 2 2 255\n" + pixels.tobytes())
    assert np.array_equal(load_raster(path), pixels)


@pytest.mark.parametrize("name, data", [
    ("ascii.pgm", b"P2 2 1 1000\n300 1000\n"),
    ("binary.pgm", b"P5 2 1 65535\n" + np.array([300, 65535], dtype=">u2").tobytes()),
], ids=["P2", "P5"])
def test_16_bit_netpbm_rejected(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(InputError, match="maxval") as err:
        load_raster(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("name, data", [
    ("ascii.pgm", b"P2 2 1 15\n200 3\n"),
    ("binary.pgm", b"P5 2 1 15\n" + bytes([200, 3])),
    ("binary.ppm", b"P6 1 1 15\n" + bytes([3, 16, 3])),
], ids=["P2", "P5", "P6"])
def test_netpbm_sample_above_maxval_rejected(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(InputError, match="pixel out of range") as err:
        load_raster(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("data, pixels", [
    (b"P2 3# width\n2 255\n0 10 20\n30 40 50\n", [[0, 10, 20], [30, 40, 50]]),
    (b"P2 # a comment ended by CR\r2 1 255\r1 2\r", [[1, 2]]),
    (b"P2 2 1 255\n# before the samples\n1 2#glued\n", [[1, 2]]),
    (b"P3 1 1 255 # before the samples\r9 8 7\n", [[[9, 8, 7]]]),
    (b"P5 2 1 255# glued to maxval\n" + bytes([7, 9]), [[7, 9]]),
    (b"P5 2 1 255\n#\n", [[35, 10]]),             # one whitespace, then the raster
], ids=["glued-header", "bare-CR", "before-samples", "P3-before-samples", "P5-glued",
        "P5-raster-hash"])
def test_netpbm_comments(tmp_path, data, pixels):
    path = tmp_path / "commented.pnm"
    path.write_bytes(data)
    assert np.array_equal(load_raster(path), pixels)


# ---------------------------------------------------------------------------
# embedding cache


def test_cache_avoids_recomputation(tmp_path, encoder):
    cache = EmbeddingCache(encoder.model_id)
    path = render_text_image(tmp_path / "img.pgm", "a blue bird")
    first = cache.image_embedding(encoder, path)
    cache.entries[str(path)] = cache.entries[str(path)] + 1.0   # poison the entry
    second = cache.image_embedding(encoder, path)
    assert np.allclose(second, first + 1.0)


def test_cache_refuses_another_encoder(tmp_path, encoder):
    cache = EmbeddingCache(encoder.model_id)
    path = render_text_image(tmp_path / "img.pgm", "a blue bird")
    cache.image_embedding(encoder, path)
    other = HashedNgramEncoder(embed_dim=32, n_buckets=128)
    with pytest.raises(CompatibilityError, match=other.model_id):
        cache.image_embedding(other, path)


def _random_netpbm(rng):
    """One random NetPBM file: a valid one, or one broken in its header or data."""
    def junk(chars=b" 0123456789#abc\t-+_"):
        return bytes(rng.choice(chars) for _ in range(rng.randrange(6)))

    def gap():
        parts = []
        for _ in range(rng.randrange(4)):
            if rng.random() < 0.5:
                parts.append(bytes(rng.choice(b" \t\n\r\x0b\x0c")
                                   for _ in range(rng.randrange(1, 3))))
            else:
                parts.append(b"#" + junk() + rng.choice([b"\n"] * 6 + [b"\r\n", b"\r", b""]))
        return b"".join(parts)

    magic = rng.choice([b"P2", b"P3", b"P5", b"P6"])
    width, height = rng.randrange(-1, 5), rng.randrange(0, 5)
    maxval = rng.choice([0, 1, 15, 255, 255, 256])
    fields = [str(v).encode() for v in (width, height, maxval)]
    if rng.random() < 0.1:
        fields[rng.randrange(3)] += junk()
    def sep():                                   # rarely none: a token glued to a comment
        return b"" if rng.random() < 0.05 else rng.choice([b" ", b"\n", b"\t"])

    header = magic + b"".join(sep() + gap() + f for f in fields)
    count = max(width, 0) * height * (3 if magic in (b"P3", b"P6") else 1) + rng.randrange(-1, 2)
    if magic in (b"P5", b"P6"):
        body = sep() + bytes(rng.randrange(min(maxval, 255) + 2) % 256
                             for _ in range(max(count, 0)))
    else:
        samples = (str(rng.randrange(maxval + 2)).encode()      # rarely a comment after
                   + (gap() if rng.random() < 0.05 else b"") for _ in range(max(count, 0)))
        body = sep() + (gap() if rng.random() < 0.1 else b"") + b" " + b" ".join(samples)
    data = header + body
    if rng.random() < 0.2:                       # cut anywhere, often inside a comment
        data = data[: rng.randrange(2, len(data) + 1)]
    if rng.random() < 0.1:                       # a comment that runs to the end of file
        data = magic + gap() + b"#" + junk()
    return data


def _parse_or_error(parse, data):
    try:
        return parse(data)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def test_netpbm_header_pattern_matches_byte_lexer():
    r"""The header pattern and the byte-by-byte lexer of netpbm_oracle agree on
    random P2/P3/P5/P6 files: the same array, or the same error message.

    Without the pattern's `(?:[\r\n]|\Z)` anchor, 8,518 of these 100,000 files
    give another result, because a token is then matched inside a comment.
    """
    # Python 3.10 has neither atomic groups nor possessive quantifiers
    assert not re.search(rb"\(\?>|[*+?}]\+", _HEADER_TOKEN.pattern)
    rng = random.Random(20221019)
    outcomes = set()
    for _ in range(100_000):
        data = _random_netpbm(rng)
        expected, got = _parse_or_error(parse_netpbm, data), _parse_or_error(_parse_netpbm, data)
        if isinstance(expected, str):
            assert got == expected, data
        else:
            assert isinstance(got, np.ndarray) and got.dtype == expected.dtype \
                and np.array_equal(got, expected), data
        outcomes.add(expected if isinstance(expected, str) else "ok")
    assert {"ok", "ValueError: truncated header", "ValueError: truncated pixel data",
            "ValueError: pixel out of range", "ValueError: bad dimensions"} <= outcomes


# ---------------------------------------------------------------------------
# pinned embeddings: the bucket counts and the projection keep their bits


def _digest(vector):
    assert vector.dtype == np.float64 and vector.shape == (256,)
    return hashlib.sha256(vector.astype("<f8").tobytes()).hexdigest()


@pytest.mark.parametrize("text, digest", [
    ("a red cat sitting on the table",
     "e7a083172423d23f2fa8da69cb17d4d5db40dba0617f83b679bf2f218d5f19ac"),
    ("Ein Märchen über Drachen — 龍の物語 \U0001f409",
     "8f14d58d1c08aff800a372371613b3373c53430c7fc47a03155950e8daf24908"),
], ids=["ascii", "non-ascii"])
def test_text_embedding_bits_are_pinned(text, digest):
    assert _digest(HashedNgramEncoder().encode_text(text)) == digest


def test_image_embedding_bits_are_pinned(tmp_path):
    encoder = HashedNgramEncoder()
    write_pgm(tmp_path / "grid.pgm",
              (np.arange(24 * 20) * 37 % 256).astype(np.uint8).reshape(20, 24))
    assert _digest(encoder.encode_image(tmp_path / "grid.pgm")) == \
        "a672fdf1b90d75fb6850cd94ef26774d6048b4455d75d0b8a5e365862a6138d8"
    commented = tmp_path / "commented.pgm"
    commented.write_bytes(
        b"P2 # magic\n# a comment 12 34\n#\n6 # width runs into a comment\t# 7\n"
        b"  # 8 9\n4\n#maxval 99\n\n200\n"
        + " ".join(str(i * 53 % 201) for i in range(24)).encode() + b"\n")
    assert load_raster(commented).shape == (4, 6)
    assert _digest(encoder.encode_image(commented)) == \
        "c49839cd6991c4f0fb92a3955b94d383fd3ab09af0eda4bed562501aa7112e9b"


def test_escaped_byte_text_bits_are_pinned():
    """U+DC80..U+DCFF (surrogateescape) encode to the bytes 0x80..0xFF they stand for."""
    text = "caf\udce9 au lait \udcff\udc80 \udcc3\udca9t\udce9"
    assert _digest(HashedNgramEncoder().encode_text(text)) == \
        "0f1db497fca51a5a0a62a6ac31135449fc829624b622c4502dcde7d27d385608"


@pytest.mark.parametrize("text", ["a \ud800 b", "\udbff", "ok \udc7f", "ok \udd00 then"])
def test_lone_surrogate_text_raises_input_error(encoder, text):
    with pytest.raises(InputError, match="lone surrogate U\\+D[89ABCD][0-9A-F]{2}"):
        encoder.encode_text(text)


# ---------------------------------------------------------------------------
# bucket counts against the per-position loop


def reference_bucket_counts(encoder, chars):
    """The bucket counts by hashing every n-gram position (n = 1..3) of the
    UTF-8 bytes, one `blake2b` call each."""
    counts = np.zeros(encoder.n_buckets)
    data = chars.encode("utf-8", errors="surrogateescape")
    for n in (1, 2, 3):
        for i in range(len(data) - n + 1):
            digest = hashlib.blake2b(data[i: i + n], digest_size=8).digest()
            counts[int.from_bytes(digest, "little") % encoder.n_buckets] += 1.0
    return counts


def assert_counts_equal_reference(encoder, chars):
    got, want = encoder._bucket_counts(chars), reference_bucket_counts(encoder, chars)
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), repr(chars[:40])


@pytest.mark.parametrize("n_buckets", [1, 7, 2048])
def test_bucket_counts_equal_reference_on_random_text(n_buckets):
    encoder = HashedNgramEncoder(embed_dim=4, n_buckets=n_buckets)
    alphabets = ("abcdefghij xyz.,\n",                      # ASCII
                 "aé ßü—龍の物語\U0001f409ÿ",                  # 2-, 3- and 4-byte UTF-8
                 "ab \udc80\udcc3\udca9\udcff",               # escaped bytes 0x80..0xFF
                 "ab é\udce9龍\udcff\U0001f409 ")
    rng = random.Random(20221019 + n_buckets)
    for alphabet in alphabets:
        for length in [0, 1, 2, 3, 4, 5, 17, 200, 2000]:
            for _ in range(3 if length < 200 else 1):
                assert_counts_equal_reference(
                    encoder, "".join(rng.choice(alphabet) for _ in range(length)))
    assert_counts_equal_reference(encoder, "aaaa" * 500)      # one n-gram, many times


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (24, 24), (37, 53), (96, 96), (224, 224),
                                   (1, 1, 3), (24, 24, 3), (96, 96, 3), (224, 224, 3)])
def test_bucket_counts_equal_reference_on_random_rasters(tmp_path, shape):
    encoder = HashedNgramEncoder()
    pixels = np.random.default_rng(sum(shape)).integers(0, 256, shape, dtype=np.uint8)
    chars = pixels.tobytes().decode("latin-1")
    assert_counts_equal_reference(encoder, chars)
    if len(shape) == 2:
        write_pgm(tmp_path / "random.pgm", pixels)
        want = encoder._project(reference_bucket_counts(encoder, chars))
        assert encoder.encode_image(tmp_path / "random.pgm").tobytes() == want.tobytes()


def test_each_distinct_ngram_is_hashed_once(tmp_path, monkeypatch):
    import ppst.encoding
    encoder = HashedNgramEncoder()
    path = render_text_image(tmp_path / "cat.pgm", "a red cat sitting on the table")
    data = load_raster(path).tobytes()
    distinct = sum(len({data[i: i + n] for i in range(len(data) - n + 1)}) for n in (1, 2, 3))
    assert len(data) == 24 * 24 and distinct < 100      # 1,725 n-gram positions
    want = encoder.encode_image(path)
    hashed = []
    blake2b = hashlib.blake2b

    def counting_blake2b(message, **kwargs):
        hashed.append(bytes(message))
        return blake2b(message, **kwargs)

    monkeypatch.setattr(ppst.encoding.hashlib, "blake2b", counting_blake2b)
    assert encoder.encode_image(path).tobytes() == want.tobytes()
    assert len(hashed) == len(set(hashed)) == distinct
