"""Book-to-passage chunking, genre matching, style filtering, and dataset IO.

Books are split on blank lines into paragraphs; paragraphs of 30-60
whitespace-delimited words become styled passages, everything else is
discarded. Genres come from a title-matched catalog with 16 canonical labels;
unmatched books are dropped. A passage counts as belonging to a style when
that style appears among the first three of its genre labels.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass, field

import numpy as np

from .artifacts import read_jsonl, read_text, require_utf8, write_jsonl
from .errors import ConfigurationError, InputError

CANONICAL_GENRES = (
    "romance", "fantasy", "science fiction", "new adult", "young adult",
    "thriller", "mystery", "vampires", "horror", "teen", "adventure",
    "literature", "humor", "historical", "themes", "other",
)

# The catalog normalizes onto the 16 canonical classes. "action" is accepted
# as one extra label because it is a default adapter style that book catalogs
# carry even though it is not one of the 16 classes.
RECOGNIZED_GENRES = CANONICAL_GENRES + ("action",)

MIN_WORDS = 30
MAX_WORDS = 60

_PARAGRAPH_BREAK = re.compile(r"\n[^\S\n]*\n[\s]*")
_SPLITS = ("train", "validation", "test")


@dataclass
class StyledPassage:
    text: str
    word_count: int
    genres: list
    source_title: str

    def __post_init__(self):
        if not (isinstance(self.text, str) and isinstance(self.word_count, int)
                and isinstance(self.genres, list) and isinstance(self.source_title, str)):
            raise InputError("a passage needs a string text and source_title, an integer "
                             "word_count and a list of genres")
        require_utf8(text=self.text)
        if not (MIN_WORDS <= self.word_count <= MAX_WORDS):
            raise InputError(f"passage of {self.source_title!r}: word_count "
                             f"{self.word_count} outside [{MIN_WORDS}, {MAX_WORDS}]")
        if self.word_count != len(self.text.split()):
            raise InputError(f"passage of {self.source_title!r}: word_count does not "
                             "match text")
        if not self.genres:
            raise InputError(f"passage of {self.source_title!r} has no genre labels")
        for g in self.genres:
            if g not in RECOGNIZED_GENRES:
                raise InputError(f"passage of {self.source_title!r}: unrecognized genre {g!r}")
        if _PARAGRAPH_BREAK.search(self.text):
            raise InputError(f"passage of {self.source_title!r} contains a paragraph break")


@dataclass
class ImageCaptionPair:
    image_ref: str
    caption_text: str
    split: str = "train"

    def __post_init__(self):
        if not all(isinstance(f, str) for f in (self.image_ref, self.caption_text, self.split)):
            raise InputError("a caption pair's image_ref, caption and split must be strings")
        require_utf8(image_ref=self.image_ref, caption=self.caption_text)
        if not self.caption_text:
            raise InputError(f"empty caption for {self.image_ref}")
        if self.split not in _SPLITS:
            raise InputError(f"unknown split {self.split!r} for {self.image_ref}")


def normalize_title(title):
    """Case-fold, strip surrounding punctuation/whitespace, collapse inner whitespace."""
    t = title.casefold().strip(string.punctuation + string.whitespace)
    return " ".join(t.split())


@dataclass
class GenreCatalog:
    """Normalized book title -> ordered genre-label list."""

    entries: dict = field(default_factory=dict)

    @classmethod
    def from_table(cls, path):
        """Tab-separated table, its header `title<TAB>genres` (any case) optional; genres
        are a semicolon-separated, order-significant list. Labels outside the
        recognized set map to "other"."""
        entries = {}
        lines = read_text(path).splitlines()
        if not lines:
            return cls(entries)
        start = int([c.strip().lower() for c in lines[0].split("\t")] == ["title", "genres"])
        for lineno, line in enumerate(lines[start:], start + 1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise InputError(f"{path}:{lineno}: expected 2 tab-separated columns")
            title, genre_field = parts
            genres = [g.strip().casefold() for g in genre_field.split(";") if g.strip()]
            genres = [g if g in RECOGNIZED_GENRES else "other" for g in genres]
            if genres:
                entries[normalize_title(title)] = genres
        return cls(entries)


def chunk_book(text):
    """Paragraphs (split on one-or-more blank lines) with 30-60 words, in order."""
    if not text:
        return []
    paragraphs = _PARAGRAPH_BREAK.split(text)
    out = []
    for p in paragraphs:
        p = p.strip()
        if p and MIN_WORDS <= len(p.split()) <= MAX_WORDS:
            out.append(p)
    return out


def match_genres(title, catalog):
    """Ordered genre list for the normalized title, or None when unmatched."""
    return catalog.entries.get(normalize_title(title))


def build_styled_passages(books, catalog):
    """(title, text) pairs -> StyledPassage list; unmatched books are dropped.

    Output is deterministic regardless of input order: sorted on
    (source_title, passage index within the book).
    """
    per_book = {}
    for title, text in books:
        genres = match_genres(title, catalog)
        if genres is None:
            continue
        chunks = chunk_book(text)
        per_book[title] = [
            StyledPassage(text=c, word_count=len(c.split()), genres=list(genres),
                          source_title=title)
            for c in chunks
        ]
    out = []
    for title in sorted(per_book):
        out.extend(per_book[title])
    return out


def filter_by_style(passages, style):
    """Passages whose first three genre labels include `style` (order preserved)."""
    if style not in RECOGNIZED_GENRES:
        raise ConfigurationError(f"unknown style {style!r}; recognized labels: "
                                 f"{', '.join(RECOGNIZED_GENRES)}")
    return [p for p in passages if style in p.genres[:3]]


def subsample(dataset, fraction, seed):
    """floor(fraction * n) items in seeded pseudo-random permutation order."""
    if not (0.0 < fraction <= 1.0):
        raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
    n = len(dataset)
    k = math.floor(fraction * n)
    perm = np.random.default_rng(seed).permutation(n)
    return [dataset[i] for i in perm[:k]]


def genre_counts(passages):
    """Passage count per recognized genre, keyed by each passage's first label."""
    counts = {g: 0 for g in RECOGNIZED_GENRES}
    for p in passages:
        counts[p.genres[0]] += 1
    return counts


# ---------------------------------------------------------------------------
# persistence (line-delimited JSON)


def save_passages(passages, path):
    write_jsonl(path, ({"text": p.text, "word_count": p.word_count, "genres": p.genres,
                        "source_title": p.source_title} for p in passages))


def load_passages(path):
    return read_jsonl(path, lambda rec: StyledPassage(
        text=rec["text"], word_count=rec["word_count"], genres=rec["genres"],
        source_title=rec["source_title"]))


def save_caption_pairs(pairs, path):
    write_jsonl(path, ({"image_ref": p.image_ref, "caption": p.caption_text,
                        "split": p.split} for p in pairs))


def load_caption_pairs(path):
    return read_jsonl(path, lambda rec: ImageCaptionPair(
        image_ref=rec["image_ref"], caption_text=rec["caption"],
        split=rec.get("split", "train")))
