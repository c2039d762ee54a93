import numpy as np
import pytest

from ppst.encoding import EmbeddingCache, HashedNgramEncoder, load_raster, write_pgm
from ppst.errors import InputError
from ppst.synthetic import render_text_image


@pytest.fixture
def encoder():
    return HashedNgramEncoder(embed_dim=32, n_buckets=256, max_text_tokens=8)


def test_text_encoding_deterministic(encoder):
    a = encoder.encode_text("a photo of a cat")
    b = encoder.encode_text("a photo of a cat")
    assert np.array_equal(a.vector, b.vector)
    assert a.model_id == encoder.model_id
    assert a.dim == 32
    # the encoder is a function of its arguments: a rebuilt one is bit-equal
    twin = HashedNgramEncoder(embed_dim=32, n_buckets=256, max_text_tokens=8)
    assert np.array_equal(twin.encode_text("a photo of a cat").vector, a.vector)
    assert twin.checksum() == encoder.checksum()


def test_distinct_texts_distinct_vectors(encoder):
    a = encoder.encode_text("a photo of a cat")
    b = encoder.encode_text("a photo of a dog")
    assert not np.array_equal(a.vector, b.vector)


def test_long_text_equals_explicit_truncation(encoder):
    long_text = " ".join(f"tok{i}" for i in range(50))
    truncated = " ".join(f"tok{i}" for i in range(encoder.max_text_tokens))
    a = encoder.encode_text(long_text)
    b = encoder.encode_text(truncated)
    assert np.array_equal(a.vector, b.vector)


def test_empty_text_rejected(encoder):
    with pytest.raises(InputError):
        encoder.encode_text("")
    with pytest.raises(InputError):
        encoder.encode_text("   ")


def test_image_encoding_deterministic(tmp_path, encoder):
    path = render_text_image(tmp_path / "img.pgm", "a red cat on the table")
    a = encoder.encode_image(path)
    b = encoder.encode_image(path)
    assert np.array_equal(a.vector, b.vector)
    assert np.isfinite(a.vector).all()


def test_corrupt_image_raises_input_error(tmp_path, encoder):
    bad = tmp_path / "broken.pgm"
    bad.write_bytes(b"P5 10 10 255\n\x00\x01")   # truncated pixel data
    with pytest.raises(InputError) as err:
        encoder.encode_image(bad)
    assert str(bad) in str(err.value.ref)


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

    match = cosine(image.vector, encoder.encode_text(caption).vector)
    mismatch = cosine(image.vector, encoder.encode_text(other).vector)
    assert match > mismatch


def test_checksum_frozen_across_calls(tmp_path, encoder):
    before = encoder.checksum()
    encoder.encode_text("a photo of a cat")
    encoder.encode_image(render_text_image(tmp_path / "x.pgm", "a dog"))
    assert encoder.checksum() == before


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
    assert str(path) in str(err.value) and err.value.ref == str(path)


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
    assert str(path) in str(err.value) and err.value.ref == str(path)


# ---------------------------------------------------------------------------
# embedding cache


def test_cache_avoids_recomputation(tmp_path, encoder):
    cache = EmbeddingCache(encoder.model_id)
    path = render_text_image(tmp_path / "img.pgm", "a blue bird")
    first = cache.image_embedding(encoder, path)
    cache.entries[str(path)] = cache.entries[str(path)] + 1.0   # poison the entry
    second = cache.image_embedding(encoder, path)
    assert np.allclose(second.vector, first.vector + 1.0)
