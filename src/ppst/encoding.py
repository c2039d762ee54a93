"""Frozen image/text embedding front end.

The pipeline treats the encoder as an opaque, immutable component that maps
images and texts to float64 vectors of shape (embed_dim,) in one shared space.
A caller needs four names from it: `encode_image`, `encode_text`, `embed_dim`
and `model_id`. `HashedNgramEncoder` is the bundled implementation: a
deterministic character/byte n-gram featurizer followed by a fixed random
projection seeded from the model id. It has no learned weights, never updates,
and keeps image/text relevance meaningful whenever image pixel content mirrors
text (the synthetic datasets in synthetic.py do exactly that). A wrapper for a
real contrastive checkpoint provides the same four names. `EmbeddingCache`
keeps one encoder's image vectors and refuses any other encoder.

Embeddings are stored unnormalized; metric code normalizes on demand.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

from .errors import CompatibilityError, ConfigurationError, InputError


# ---------------------------------------------------------------------------
# raster loading


def load_raster(image_ref):
    """Decode an image file into a uint8 array.

    NetPBM (P2/P3/P5/P6) is parsed natively; other formats go through Pillow
    when it is installed. Anything unreadable raises InputError naming the file.
    """
    path = Path(image_ref)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read image {image_ref}: {exc}")
    if data[:2] in (b"P2", b"P3", b"P5", b"P6"):
        try:
            return _parse_netpbm(data)
        except Exception as exc:
            raise InputError(f"corrupt NetPBM image {image_ref}: {exc}")
    try:
        from PIL import Image
    except ImportError:
        raise InputError(f"unsupported image format for {image_ref} (install pillow)")
    try:
        import io
        with Image.open(io.BytesIO(data)) as img:
            return np.asarray(img.convert("RGB"), dtype=np.uint8)
    except Exception as exc:
        raise InputError(f"cannot decode image {image_ref}: {exc}")


# One header token after whitespace and comments, with a comment glued to its
# end. A comment runs from "#" to a line end (CR or LF) or EOF.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?:[\r\n]|\Z))*([^\s#]+)(?:#[^\r\n]*)?")


def _parse_netpbm(data):
    magic = data[:2].decode()
    pos = 2
    fields = []
    while len(fields) < 3:
        match = _HEADER_TOKEN.match(data, pos)
        if match is None:
            raise ValueError("truncated header")
        fields.append(int(match[1]))
        pos = match.end()
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
        values = re.sub(rb"#[^\r\n]*", b" ", data[pos:]).split()
        if len(values) < count:
            raise ValueError("truncated pixel data")
        pixels = np.array([int(v) for v in values[:count]], dtype=np.int32)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise ValueError("pixel out of range")
    pixels = pixels.astype(np.uint8, copy=False)
    return pixels.reshape((height, width) if channels == 1 else (height, width, 3))


def write_pgm(path, pixels):
    """Write a grayscale uint8 array as binary PGM (P5)."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise ConfigurationError("write_pgm expects a 2-D array")
    header = f"P5 {pixels.shape[1]} {pixels.shape[0]} 255\n".encode()
    Path(path).write_bytes(header + pixels.tobytes())


# ---------------------------------------------------------------------------
# the bundled deterministic encoder


class HashedNgramEncoder:
    """Deterministic n-gram hashing + fixed random projection.

    Text is truncated to `max_text_tokens` whitespace tokens, then character
    n-grams (n = 1..3) are hashed into buckets; images contribute their pixel
    byte stream through the same featurizer, so images whose pixels carry
    text-like content align with their captions. Each distinct n-gram is hashed
    once and counted by its multiplicity, which gives the same counts, bit for
    bit, as hashing every position. Bucket counts are projected by a matrix
    drawn once from a seed derived from the model id.
    """

    def __init__(self, embed_dim=256, model_id=None, max_text_tokens=77, n_buckets=2048):
        for field, value in (("embed_dim", embed_dim), ("n_buckets", n_buckets),
                             ("max_text_tokens", max_text_tokens)):
            if value < 1:
                raise ConfigurationError(f"HashedNgramEncoder.{field} must be >= 1")
        self.embed_dim = embed_dim
        self.n_buckets = n_buckets
        self.max_text_tokens = max_text_tokens
        self.model_id = model_id or f"hashed-ngram-d{embed_dim}-b{n_buckets}-v1"
        seed_bytes = hashlib.sha256(self.model_id.encode()).digest()[:8]
        seed = int.from_bytes(seed_bytes, "little")
        rng = np.random.default_rng(seed)
        self.projection = rng.standard_normal((n_buckets, embed_dim)) / np.sqrt(n_buckets)
        self.projection.flags.writeable = False

    def _bucket_counts(self, chars):
        """Float64 bucket counts of the byte n-grams (n = 1..3) of `chars` as UTF-8.

        Each distinct n-gram, packed big-endian into an int64, is hashed once
        and counted by its multiplicity: the same integer counts as hashing
        every position.
        """
        try:
            data = chars.encode("utf-8", errors="surrogateescape")
        except UnicodeEncodeError as exc:
            raise InputError(f"cannot encode text: it holds the lone surrogate "
                             f"U+{ord(exc.object[exc.start]):04X}, which has no UTF-8 form")
        data = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        buckets, multiplicities = [], []
        for n in (1, 2, 3):
            grams = data[: max(len(data) - n + 1, 0)]
            for k in range(1, n):
                grams = (grams << 8) | data[k: k + len(grams)]
            distinct, multiplicity = np.unique(grams, return_counts=True)
            digests = b"".join([hashlib.blake2b(g.to_bytes(n, "big"), digest_size=8).digest()
                                for g in distinct.tolist()])
            # each digest read as int.from_bytes(digest, "little")
            buckets.append(np.frombuffer(digests, dtype="<u8") % np.uint64(self.n_buckets))
            multiplicities.append(multiplicity)
        counts = np.bincount(np.concatenate(buckets).astype(np.int64),
                             weights=np.concatenate(multiplicities), minlength=self.n_buckets)
        return counts.astype(np.float64, copy=False)   # bincount of nothing is int64

    def _project(self, counts):
        total = counts.sum()
        if total > 0:
            counts = counts / total
        return counts @ self.projection

    def encode_text(self, text):
        if not text or not text.strip():
            raise InputError("cannot encode empty text")
        return self._project(self._bucket_counts(
            " ".join(text.split()[: self.max_text_tokens])))

    def encode_image(self, image_ref):
        pixels = load_raster(image_ref)
        return self._project(self._bucket_counts(pixels.tobytes().decode("latin-1")))


# ---------------------------------------------------------------------------
# in-memory embedding cache


class EmbeddingCache:
    """Image embeddings of the encoder `model_id`, kept in memory by image_ref."""

    def __init__(self, model_id):
        self.model_id = model_id
        self.entries = {}

    def image_embedding(self, encoder, image_ref):
        """The cached vector of `image_ref`; another encoder's raises CompatibilityError."""
        if encoder.model_id != self.model_id:
            raise CompatibilityError(f"embedding cache of {self.model_id} asked for an "
                                     f"embedding of {encoder.model_id}")
        key = str(image_ref)
        if key not in self.entries:
            self.entries[key] = encoder.encode_image(image_ref)
        return self.entries[key]
