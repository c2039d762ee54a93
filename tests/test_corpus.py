import hashlib
import json

import numpy as np
import pytest

from ppst.corpus import (CANONICAL_GENRES, RECOGNIZED_GENRES, GenreCatalog,
                         ImageCaptionPair, StyledPassage, build_styled_passages,
                         chunk_book, filter_by_style, genre_counts, load_caption_pairs,
                         load_passages, match_genres, normalize_title,
                         save_caption_pairs, save_passages, subsample)
from ppst.errors import ConfigurationError, InputError
from ppst.synthetic import make_book_files


def words(n, prefix="w"):
    return " ".join(f"{prefix}{i}" for i in range(n))


def test_canonical_genre_set():
    assert len(CANONICAL_GENRES) == 16
    assert "action" not in CANONICAL_GENRES
    assert "action" in RECOGNIZED_GENRES


def test_chunk_keeps_only_30_to_60_word_paragraphs():
    text = words(45) + "\n\n" + words(10)
    assert chunk_book(text) == [words(45)]


def test_chunk_empty_input():
    assert chunk_book("") == []


def test_chunk_boundaries_inclusive():
    text = words(30) + "\n\n" + words(60) + "\n\n" + words(29) + "\n\n" + words(61)
    assert chunk_book(text) == [words(30), words(60)]


def test_chunk_blank_line_variants():
    # runs of newlines with only whitespace between count as one break
    text = words(31) + "\n   \n\n\t\n" + words(32)
    assert chunk_book(text) == [words(31), words(32)]


def test_chunk_does_not_merge_or_split():
    # 20 + 20 words separated by a blank line: neither kept, never merged
    assert chunk_book(words(20) + "\n\n" + words(20)) == []


def test_chunk_synthetic_corpus_against_recount():
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 101, size=1000)
    paragraphs = [" ".join(f"t{i}_{j}" for j in range(c)) for i, c in enumerate(counts)]
    text = "\n\n".join(paragraphs)
    kept = chunk_book(text)
    expected = [p for p, c in zip(paragraphs, counts) if 30 <= c <= 60]
    assert kept == expected
    assert len(kept) == int(np.sum((counts >= 30) & (counts <= 60)))


def test_chunk_is_pure():
    text = words(40) + "\n\n" + words(3)
    assert chunk_book(text) == chunk_book(text)


def test_every_catalogued_synthetic_book_gives_a_passage(tmp_path):
    """Each seed's two catalogued books keep at least one passage (seeds 11 and
    94 once drew no 30-60-word paragraph for one of them)."""
    for seed in range(200):
        books = make_book_files(tmp_path / str(seed), seed=seed)
        catalog = GenreCatalog.from_table(books / "catalog.tsv")
        passages = build_styled_passages(
            [(f.stem, f.read_text(encoding="utf-8")) for f in books.glob("*.txt")], catalog)
        assert {p.source_title for p in passages} == {"Letters at Dusk", "Steel Convoy"}, seed


# sha256 of make_book_files(seed=0), which builds the CLI test workspace and the demos
SEED_0_BOOKS = {
    "Letters at Dusk.txt": "5fac9868a5e0fed590b13f89ae447c2cc27dbec1670b40ef1e7a8f9f03ceaa8b",
    "Steel Convoy.txt": "8cd7be93a09dad0347fa8275fef85f2c81301e2a41871c99176f7af13179e7b7",
    "Uncatalogued Manuscript.txt":
        "b2283ab55ff922cf0f147587ef00b0e927961c30cb81a76f3a9f1e8d1d093c43",
    "catalog.tsv": "fdef58cceb510070d19f7186c3ac0e2983fc55a486be6b55d85b2c974d82379a",
}


def test_seed_0_book_files_are_pinned(tmp_path):
    books = make_book_files(tmp_path, seed=0)
    assert {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in books.iterdir()} == SEED_0_BOOKS


# ---------------------------------------------------------------------------
# genre matching


def _catalog():
    return GenreCatalog({"the long road": ["romance", "teen"],
                         "night watch": ["thriller", "mystery", "horror"]})


def test_match_genres_normalization_identity():
    cat = GenreCatalog({"the long road": ["romance"]})
    assert match_genres("The Long Road", cat) == ["romance"]


def test_match_genres_absent_title():
    assert match_genres("unknown book", _catalog()) is None


def test_match_genres_random_perturbations():
    rng = np.random.default_rng(1)
    titles = [f"book number {i} of tales" for i in range(100)]
    cat = GenreCatalog({t: ["fantasy"] for t in titles})
    punct = list("!?.,;:'\"()[]")
    matched = 0
    for t in titles:
        perturbed = "".join(c.upper() if rng.random() < 0.5 else c for c in t)
        perturbed = "  " + rng.choice(punct) + perturbed + rng.choice(punct) + " "
        perturbed = perturbed.replace(" ", "  ") if rng.random() < 0.5 else perturbed
        if match_genres(perturbed, cat) == ["fantasy"]:
            matched += 1
    assert matched == 100


def test_normalize_title_collapses_whitespace_and_punctuation():
    assert normalize_title("  ''The   Long  Road!''  ") == "the long road"


def test_catalog_from_table(tmp_path):
    table = tmp_path / "catalog.tsv"
    table.write_text("title\tgenres\n"
                     "The Long Road\tRomAnce; Teen\n"
                     "Night Watch\tthriller;space opera;mystery\n")
    cat = GenreCatalog.from_table(table)
    assert cat.entries[normalize_title("The Long Road")] == ["romance", "teen"]
    # unknown label maps to "other", order preserved
    assert cat.entries[normalize_title("Night Watch")] == ["thriller", "other", "mystery"]


def test_catalog_header_is_title_and_genres_only(tmp_path):
    """A first line is the header only when its columns are `title` and `genres`
    (any case, stripped); a book whose title starts with "Title" is kept."""
    table = tmp_path / "catalog.tsv"
    table.write_text("Title Fight\taction\nSteel Convoy\taction\n")
    assert list(GenreCatalog.from_table(table).entries) == ["title fight", "steel convoy"]
    table.write_text(" TITLE \t Genres\nSteel Convoy\taction\n")
    assert list(GenreCatalog.from_table(table).entries) == ["steel convoy"]


def test_catalog_rejects_malformed_rows(tmp_path):
    table = tmp_path / "catalog.tsv"
    table.write_text("title\tgenres\nonly-one-column\n")
    with pytest.raises(InputError):
        GenreCatalog.from_table(table)


# ---------------------------------------------------------------------------
# style filtering


def passage(genres, n=35, title="t"):
    return StyledPassage(text=words(n), word_count=n, genres=genres, source_title=title)


def test_filter_keeps_style_in_first_three():
    kept = filter_by_style([passage(["romance", "fantasy", "teen"])], "romance")
    assert len(kept) == 1


def test_filter_drops_style_in_fourth_position():
    kept = filter_by_style([passage(["fantasy", "teen", "horror", "romance"])], "romance")
    assert kept == []


def test_filter_unknown_style():
    with pytest.raises(ConfigurationError):
        filter_by_style([], "space opera")


def test_filter_matches_brute_force_on_synthetic_corpus():
    rng = np.random.default_rng(2)
    labels = list(RECOGNIZED_GENRES)
    passages = []
    for i in range(500):
        k = int(rng.integers(1, 6))
        genres = [labels[j] for j in rng.choice(len(labels), size=k, replace=False)]
        passages.append(passage(genres, title=f"b{i}"))
    for style in ("romance", "action", "teen"):
        kept = filter_by_style(passages, style)
        brute = [p for p in passages if style in list(p.genres)[:3]]
        assert kept == brute


def test_filter_output_is_subsequence_of_input():
    rng = np.random.default_rng(3)
    passages = [passage([rng.choice(RECOGNIZED_GENRES)], title=f"p{i}")
                for i in range(100)]
    kept = filter_by_style(passages, "horror")
    it = iter(passages)
    assert all(any(k is p for p in it) for k in kept)


# ---------------------------------------------------------------------------
# subsampling


def pairs(n):
    return [ImageCaptionPair(f"img{i}", f"caption {i}") for i in range(n)]


def test_subsample_floor_count():
    assert len(subsample(pairs(100), 0.10, seed=5)) == 10
    assert len(subsample(pairs(105), 0.10, seed=5)) == 10


def test_subsample_full_fraction_keeps_everything():
    data = pairs(20)
    out = subsample(data, 1.0, seed=1)
    assert sorted(p.image_ref for p in out) == sorted(p.image_ref for p in data)


def test_subsample_deterministic():
    data = pairs(50)
    a = subsample(data, 0.3, seed=9)
    b = subsample(data, 0.3, seed=9)
    assert [p.image_ref for p in a] == [p.image_ref for p in b]
    c = subsample(data, 0.3, seed=10)
    assert [p.image_ref for p in a] != [p.image_ref for p in c]


@pytest.mark.parametrize("fraction", [0.0, -0.1, 1.5])
def test_subsample_rejects_bad_fraction(fraction):
    with pytest.raises(ConfigurationError):
        subsample(pairs(10), fraction, seed=0)


# ---------------------------------------------------------------------------
# types and persistence


def test_passage_word_count_invariant():
    with pytest.raises(InputError):
        StyledPassage(text=words(29), word_count=29, genres=["romance"], source_title="x")
    with pytest.raises(InputError):
        StyledPassage(text=words(61), word_count=61, genres=["romance"], source_title="x")


def test_passage_rejects_paragraph_break():
    text = words(20) + "\n\n" + words(20)
    with pytest.raises(InputError):
        StyledPassage(text=text, word_count=42, genres=["romance"], source_title="x")


def test_passage_rejects_unknown_genre():
    with pytest.raises(InputError):
        passage(["space opera"])


def test_caption_pair_requires_text():
    with pytest.raises(InputError):
        ImageCaptionPair("img0", "")


def test_build_styled_passages_drops_unmatched_and_sorts():
    cat = _catalog()
    books = [("zzz unknown", words(40)),
             ("night watch", words(35) + "\n\n" + words(50)),
             ("the long road", words(45))]
    out = build_styled_passages(books, cat)
    assert [p.source_title for p in out] == ["night watch", "night watch",
                                             "the long road"]
    assert all(30 <= p.word_count <= 60 for p in out)
    assert out[0].genres == ["thriller", "mystery", "horror"]


def test_passages_jsonl_round_trip(tmp_path):
    out = tmp_path / "passages.jsonl"
    original = [passage(["romance", "teen"], n=33, title="a"),
                passage(["horror"], n=60, title="b")]
    save_passages(original, out)
    loaded = load_passages(out)
    assert loaded == original
    rec = json.loads(out.read_text().splitlines()[0])
    assert set(rec) == {"text", "word_count", "genres", "source_title"}


def test_caption_pairs_jsonl_round_trip(tmp_path):
    out = tmp_path / "captions.jsonl"
    original = [ImageCaptionPair("img0", "a cat", "train"),
                ImageCaptionPair("img1", "a dog", "test")]
    save_caption_pairs(original, out)
    assert load_caption_pairs(out) == original
    rec = json.loads(out.read_text().splitlines()[0])
    assert set(rec) == {"image_ref", "caption", "split"}


def test_genre_counts_keyed_by_first_label():
    out = genre_counts([passage(["romance", "teen"]), passage(["romance"]),
                        passage(["horror"])])
    assert out["romance"] == 2
    assert out["horror"] == 1
    assert out["teen"] == 0
