"""Synthetic toy datasets: two-style passage corpora and caption/image pairs.

The two styles use disjoint content vocabularies so that style adaptation is
measurable (perplexity shifts, unigram KL). Images are tiny grayscale
rasters whose pixel bytes carry the caption text, which makes the bundled
hashed n-gram encoder align images with their captions.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import MAX_WORDS, MIN_WORDS, ImageCaptionPair, StyledPassage, chunk_book
from .encoding import write_pgm

ROMANCE_WORDS = [
    "rose", "heart", "kiss", "moonlight", "letter", "waltz", "promise", "tender",
    "whisper", "longing", "embrace", "velvet", "candle", "garden", "sonnet",
    "blush", "serenade", "devotion", "lace", "perfume", "starlit", "vow",
    "courtship", "gaze", "sigh", "bouquet", "dearest", "cherish", "sweetheart",
    "romance", "flutter", "midsummer", "locket", "ballroom", "satin", "adore",
    "beloved", "yearning", "twilight", "caress",
]

ACTION_WORDS = [
    "blast", "chase", "rifle", "convoy", "siege", "ambush", "strike", "armor",
    "squad", "detonate", "bunker", "sprint", "grenade", "rooftop", "vault",
    "crossfire", "sniper", "raid", "shockwave", "turret", "barricade", "recon",
    "flank", "payload", "extraction", "warhead", "stunt", "collision", "pursuit",
    "ricochet", "smoke", "breach", "commando", "dogfight", "throttle", "impact",
    "fuse", "showdown", "patrol", "counterattack",
]

CAPTION_OBJECTS = ["cat", "dog", "bird", "horse", "boat", "train", "kite", "clock",
                   "bench", "lamp"]
CAPTION_COLORS = ["red", "blue", "green", "yellow", "white", "black"]
CAPTION_PLACES = ["table", "grass", "beach", "street", "roof", "field", "river",
                  "market"]
CAPTION_TEMPLATE_WORDS = ["a", "photo", "of", "the", "on"]

STYLE_VOCAB = {"romance": ROMANCE_WORDS, "action": ACTION_WORDS}


def caption_vocabulary():
    return (CAPTION_TEMPLATE_WORDS + CAPTION_OBJECTS + CAPTION_COLORS + CAPTION_PLACES)


def full_vocabulary():
    return sorted(set(ROMANCE_WORDS + ACTION_WORDS + caption_vocabulary()))


def make_style_passages(style, n, seed=0):
    """n passages of MIN_WORDS-MAX_WORDS words from the style's content vocabulary."""
    words = STYLE_VOCAB[style]
    rng = np.random.default_rng(seed)
    passages = []
    for i in range(n):
        count = int(rng.integers(MIN_WORDS, MAX_WORDS + 1))
        text = " ".join(rng.choice(words, size=count))
        passages.append(StyledPassage(text=text, word_count=count, genres=[style],
                                      source_title=f"{style} volume {i // 200}"))
    return passages


def make_caption(rng):
    color = rng.choice(CAPTION_COLORS)
    obj = rng.choice(CAPTION_OBJECTS)
    place = rng.choice(CAPTION_PLACES)
    return f"a photo of the {color} {obj} on the {place}"


def render_text_image(path, text):
    """Tile the text's bytes into a 24x24 grayscale raster and write it as PGM."""
    h = w = 24
    data = text.encode("utf-8")
    reps = -(-(h * w) // len(data))
    pixels = np.frombuffer(data * reps, dtype=np.uint8)[: h * w].reshape(h, w)
    write_pgm(path, pixels)
    return path


def make_caption_dataset(directory, n, seed=0):
    """n train (image, caption) pairs; each image renders its caption's bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    pairs = []
    for i in range(n):
        caption = make_caption(rng)
        path = directory / f"img{i:05d}.pgm"
        render_text_image(path, caption)
        pairs.append(ImageCaptionPair(image_ref=str(path), caption_text=caption))
    return pairs


def make_book_files(directory, seed=0):
    """A small on-disk book collection + genre catalog for corpus-CLI runs.

    Three books: romance and action titles with at least one 30-60-word paragraph
    each, plus one book absent from the catalog (must be dropped).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    specs = [
        ("Letters at Dusk", "romance", 8),
        ("Steel Convoy", "action", 8),
        ("Uncatalogued Manuscript", None, 4),
    ]
    for title, style, n_paragraphs in specs:
        words = STYLE_VOCAB.get(style, CAPTION_OBJECTS)
        paragraphs = []
        for i in range(n_paragraphs):
            # keepable (30-60) and droppable lengths; a catalogued book keeps at least one
            needs_one = style and i == n_paragraphs - 1 and not any(map(chunk_book, paragraphs))
            count = int(rng.choice([35, 45, 55] if needs_one else [10, 25, 35, 45, 55, 70]))
            paragraphs.append(" ".join(rng.choice(words, size=count)))
        (directory / f"{title}.txt").write_text("\n\n".join(paragraphs),
                                                encoding="utf-8")
    catalog = directory / "catalog.tsv"
    catalog.write_text(
        "title\tgenres\n"
        "letters at dusk\tromance;historical\n"
        "STEEL CONVOY.\taction;adventure;thriller\n",
        encoding="utf-8",
    )
    return directory
