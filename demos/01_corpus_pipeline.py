#!/usr/bin/env python3
"""Corpus capability tour: chunking books, matching genres, filtering styles.

Builds a throwaway book collection, runs it through the corpus pipeline, and
prints what survives at each stage.
"""

import tempfile
from pathlib import Path

from ppst.corpus import (GenreCatalog, build_styled_passages, chunk_book,
                         filter_by_style, genre_counts, load_caption_pairs,
                         save_caption_pairs, subsample)
from ppst.synthetic import make_book_files, make_caption_dataset

with tempfile.TemporaryDirectory(prefix="ppst-demo-") as tmp:
    workdir = Path(tmp)
    books_dir = make_book_files(workdir / "books", seed=0)
    print(f"wrote a tiny book collection to {books_dir}\n")

    # 1. paragraph chunking: only 30-60-word paragraphs become passages
    sample = (books_dir / "Letters at Dusk.txt").read_text()
    kept = chunk_book(sample)
    print(f"'Letters at Dusk' has {len(kept)} paragraphs in the 30-60-word band")
    print(f"  first kept paragraph ({len(kept[0].split())} words): {kept[0][:70]}...\n")

    # 2. genre matching through the catalog (unmatched books are dropped)
    catalog = GenreCatalog.from_table(books_dir / "catalog.tsv")
    books = [(f.stem, f.read_text()) for f in sorted(books_dir.glob("*.txt"))]
    passages = build_styled_passages(books, catalog)
    print(f"{len(passages)} styled passages from {len(books)} books "
          "(the uncatalogued one was dropped)")
    counts = genre_counts(passages)
    for genre, count in sorted(counts.items()):
        if count:
            print(f"  {genre}: {count}")
    print()

    # 3. style filtering: a passage counts when the style is in its first three genres
    for style in ("romance", "action"):
        print(f"style {style!r}: {len(filter_by_style(passages, style))} passages")
    print()

    # 4. caption pairs with deterministic subsampling
    pairs = make_caption_dataset(workdir / "images", 40, seed=1)
    save_caption_pairs(pairs, workdir / "captions.jsonl")
    tenth = subsample(load_caption_pairs(workdir / "captions.jsonl"), 0.10, seed=7)
    print(f"subsampled {len(tenth)}/{len(pairs)} caption pairs (fraction 0.10, seed 7)")
    print("same seed gives the same picks:",
          [p.image_ref[-12:] for p in subsample(pairs, 0.10, seed=7)]
          == [p.image_ref[-12:] for p in tenth])
