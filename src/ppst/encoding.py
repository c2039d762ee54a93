"""Frozen image/text embedding front end.

The pipeline treats the encoder as an opaque, immutable component that maps
images and texts into one shared d_e-dimensional space. `ImageTextEncoder`
is the interface; `HashedNgramEncoder` is the bundled implementation: a
deterministic character/byte n-gram featurizer followed by a fixed random
projection seeded from the model id. It has no learned weights, never
updates, and keeps image/text relevance meaningful whenever image pixel
content mirrors text (the synthetic datasets in synthetic.py do exactly
that). Wrappers for real contrastive checkpoints can subclass the interface.

Embeddings are stored unnormalized; metric code normalizes on demand.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import read_json
from .errors import ConfigurationError, InputError

_NORM_TOL = 1e-4


@dataclass
class VisualEmbedding:
    vector: np.ndarray
    model_id: str
    l2_normalized: bool = False

    def __post_init__(self):
        self.vector = np.asarray(self.vector, dtype=np.float64)
        if self.vector.ndim != 1:
            raise ConfigurationError("embedding vector must be 1-D")
        if self.l2_normalized:
            norm = float(np.linalg.norm(self.vector))
            if abs(norm - 1.0) > _NORM_TOL:
                raise ConfigurationError(f"l2_normalized embedding has norm {norm}")

    @property
    def dim(self):
        return self.vector.shape[0]


class TextEmbedding(VisualEmbedding):
    pass


class ImageTextEncoder:
    """Interface for a frozen contrastive image/text encoder."""

    model_id: str
    embed_dim: int
    max_text_tokens: int

    def encode_image(self, image_ref) -> VisualEmbedding:
        raise NotImplementedError

    def encode_text(self, text) -> TextEmbedding:
        raise NotImplementedError

    def checksum(self) -> str:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# raster loading


def load_raster(image_ref):
    """Decode an image file into a uint8 array.

    NetPBM (P2/P3/P5/P6) is parsed natively; other formats go through Pillow
    when it is installed. Anything unreadable raises InputError with the ref.
    """
    path = Path(image_ref)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read image {image_ref}: {exc}", ref=str(image_ref))
    if data[:2] in (b"P2", b"P3", b"P5", b"P6"):
        try:
            return _parse_netpbm(data)
        except Exception as exc:
            raise InputError(f"corrupt NetPBM image {image_ref}: {exc}", ref=str(image_ref))
    try:
        from PIL import Image
    except ImportError:
        raise InputError(f"unsupported image format for {image_ref} (install pillow)",
                         ref=str(image_ref))
    try:
        import io
        with Image.open(io.BytesIO(data)) as img:
            return np.asarray(img.convert("RGB"), dtype=np.uint8)
    except Exception as exc:
        raise InputError(f"cannot decode image {image_ref}: {exc}", ref=str(image_ref))


def _parse_netpbm(data):
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
    if width <= 0 or height <= 0 or not (0 < maxval < 65536):
        raise ValueError("bad dimensions")
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
        pixels = pixels.astype(np.uint8)
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


class HashedNgramEncoder(ImageTextEncoder):
    """Deterministic n-gram hashing + fixed random projection.

    Text is truncated to `max_text_tokens` whitespace tokens, then character
    n-grams (n = 1..3) are hashed into buckets; images contribute their pixel
    byte stream through the same featurizer, so images whose pixels carry
    text-like content align with their captions. Bucket counts are projected
    by a matrix drawn once from a seed derived from the model id.
    """

    def __init__(self, embed_dim=256, model_id=None, max_text_tokens=77, n_buckets=2048):
        if embed_dim < 1 or n_buckets < 1 or max_text_tokens < 1:
            raise ConfigurationError("encoder dimensions must be positive")
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
        counts = np.zeros(self.n_buckets)
        data = chars.encode("utf-8", errors="surrogateescape")
        for n in (1, 2, 3):
            for i in range(len(data) - n + 1):
                digest = hashlib.blake2b(data[i: i + n], digest_size=8).digest()
                counts[int.from_bytes(digest, "little") % self.n_buckets] += 1.0
        return counts

    def _project(self, counts):
        total = counts.sum()
        if total > 0:
            counts = counts / total
        return counts @ self.projection

    def truncate_text(self, text):
        return " ".join(text.split()[: self.max_text_tokens])

    def encode_text(self, text):
        if not text or not text.strip():
            raise InputError("cannot encode empty text", ref=text)
        vec = self._project(self._bucket_counts(self.truncate_text(text)))
        return TextEmbedding(vector=vec, model_id=self.model_id)

    def encode_image(self, image_ref):
        pixels = load_raster(image_ref)
        chars = pixels.tobytes().decode("latin-1")
        vec = self._project(self._bucket_counts(chars))
        return VisualEmbedding(vector=vec, model_id=self.model_id)

    def checksum(self):
        return hashlib.sha256(self.projection.tobytes() + self.model_id.encode()
                              + struct.pack("<III", self.embed_dim, self.n_buckets,
                                            self.max_text_tokens)).hexdigest()

    def save(self, directory):
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "encoder.json").write_text(json.dumps({
            "kind": "hashed_ngram_encoder",
            "model_id": self.model_id,
            "embed_dim": self.embed_dim,
            "n_buckets": self.n_buckets,
            "max_text_tokens": self.max_text_tokens,
            "checksum": self.checksum(),
        }, indent=2))
        return directory

    @classmethod
    def load(cls, directory):
        meta = read_json(Path(directory) / "encoder.json")
        if meta.get("kind") != "hashed_ngram_encoder":
            raise ConfigurationError(f"{directory} is not an encoder checkpoint")
        enc = cls(embed_dim=meta["embed_dim"], model_id=meta["model_id"],
                  max_text_tokens=meta["max_text_tokens"], n_buckets=meta["n_buckets"])
        if enc.checksum() != meta["checksum"]:
            raise ConfigurationError("encoder checksum mismatch after load")
        return enc


# ---------------------------------------------------------------------------
# embedding cache: length-prefixed little-endian float32 records


_CACHE_MAGIC = b"PPEC"


class EmbeddingCache:
    """On-disk cache of embeddings keyed by image_ref or text hash.

    Binary layout: magic, then [u32 len][model_id utf-8]; each record is
    [u32 len][key utf-8][u32 dim][dim * f32 LE].
    """

    def __init__(self, model_id):
        self.model_id = model_id
        self.entries = {}

    @staticmethod
    def text_key(text):
        return "text:" + hashlib.sha256(text.encode("utf-8")).hexdigest()

    def put(self, key, vector):
        self.entries[key] = np.asarray(vector, dtype=np.float64)

    def get(self, key):
        return self.entries.get(key)

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            mid = self.model_id.encode("utf-8")
            fh.write(struct.pack("<I", len(mid)) + mid)
            for key in sorted(self.entries):
                kb = key.encode("utf-8")
                vec = np.ascontiguousarray(self.entries[key], dtype="<f4")
                fh.write(struct.pack("<I", len(kb)) + kb)
                fh.write(struct.pack("<I", vec.size) + vec.tobytes())

    @classmethod
    def load(cls, path):
        data = Path(path).read_bytes()
        if data[:4] != _CACHE_MAGIC:
            raise InputError(f"{path} is not an embedding cache", ref=str(path))
        pos = 4

        def take(n):
            nonlocal pos
            if pos + n > len(data):
                raise InputError(f"truncated embedding cache {path}", ref=str(path))
            out = data[pos: pos + n]
            pos += n
            return out

        (mid_len,) = struct.unpack("<I", take(4))
        cache = cls(take(mid_len).decode("utf-8"))
        while pos < len(data):
            (key_len,) = struct.unpack("<I", take(4))
            key = take(key_len).decode("utf-8")
            (dim,) = struct.unpack("<I", take(4))
            vec = np.frombuffer(take(4 * dim), dtype="<f4").astype(np.float64)
            cache.entries[key] = vec
        return cache

    def image_embedding(self, encoder, image_ref):
        key = str(image_ref)
        if key not in self.entries:
            self.entries[key] = encoder.encode_image(image_ref).vector
        return VisualEmbedding(vector=self.entries[key], model_id=self.model_id)

    def text_embedding(self, encoder, text):
        key = self.text_key(text)
        if key not in self.entries:
            self.entries[key] = encoder.encode_text(text).vector
        return TextEmbedding(vector=self.entries[key], model_id=self.model_id)
