import json
import re
import socketserver
import threading
from functools import lru_cache

import numpy as np
import pytest

from ppst.errors import ScorerUnavailable
from ppst.metrics import (EXTERNAL_METRICS, REPORT_COLUMNS, MetricReport, chrf_pp,
                          clip_score, evaluate_run, external_score, lcs_length, rouge_l,
                          tokenize)

# ---------------------------------------------------------------------------
# independent oracles


def recursive_lcs(a, b):
    """Brute-force recursive LCS straight from the recurrence (memoized)."""
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == 0 or j == 0:
            return 0
        if a[i - 1] == b[j - 1]:
            return 1 + rec(i - 1, j - 1)
        return max(rec(i - 1, j), rec(i, j - 1))

    return rec(len(a), len(b))


def chrf_oracle(candidate, references, beta=2.0):
    """Direct n-gram enumeration of the documented ChrF++ convention."""
    def counts(seq, n):
        out = {}
        for i in range(len(seq) - n + 1):
            g = tuple(seq[i: i + n])
            out[g] = out.get(g, 0) + 1
        return out

    def f_for(cand_seq, ref_seq, n):
        c, r = counts(cand_seq, n), counts(ref_seq, n)
        tc, tr = sum(c.values()), sum(r.values())
        if tc == 0 and tr == 0:
            return None
        match = sum(min(v, r.get(g, 0)) for g, v in c.items())
        p = match / tc if tc else 0.0
        rec = match / tr if tr else 0.0
        denom = rec + beta * beta * p
        return (1 + beta * beta) * p * rec / denom if denom > 0 else 0.0

    best = 0.0
    for ref in references:
        fs = []
        for n in range(1, 7):
            f = f_for("".join(candidate.split()), "".join(ref.split()), n)
            if f is not None:
                fs.append(f)
        for n in (1, 2):
            f = f_for(re.findall(r"\w+|[^\w\s]", candidate),
                      re.findall(r"\w+|[^\w\s]", ref), n)
            if f is not None:
                fs.append(f)
        if fs:
            best = max(best, sum(fs) / len(fs))
    return best


def random_sentence(rng, n_words):
    words = ["cat", "dog", "sat", "mat", "ran", "red", "sun", "a", "the", "on", "!"]
    return " ".join(rng.choice(words) for _ in range(n_words))


# ---------------------------------------------------------------------------
# ROUGE-L


def test_rouge_identity():
    tokens = "a b c d".split()
    assert rouge_l(tokens, [tokens])["f"] == pytest.approx(1.0)


def test_rouge_disjoint():
    assert rouge_l("a b".split(), ["c d".split()])["f"] == 0.0


def test_rouge_police_gunman():
    out = rouge_l("police kill the gunman".split(),
                  ["police killed the gunman".split()])
    assert out["precision"] == pytest.approx(0.75)
    assert out["recall"] == pytest.approx(0.75)
    assert out["f"] == pytest.approx(0.75)       # beta cancels when P == R


def test_rouge_multi_reference_takes_max_f():
    cand = "a b c".split()
    weak = "x y z".split()
    strong = "a b c".split()
    assert rouge_l(cand, [weak, strong])["f"] == pytest.approx(1.0)


def test_rouge_empty_scores_zero_with_warning():
    with pytest.warns(RuntimeWarning):
        assert rouge_l([], ["a".split()])["f"] == 0.0
    with pytest.warns(RuntimeWarning):
        assert rouge_l("a".split(), [[]])["f"] == 0.0


def test_lcs_matches_recursive_oracle():
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 13))]
        b = [int(x) for x in rng.integers(0, 5, size=rng.integers(0, 13))]
        assert lcs_length(a, b) == recursive_lcs(a, b)


def test_tokenize_splits_punctuation():
    assert tokenize("The cat, sat!") == ["the", "cat", ",", "sat", "!"]


# ---------------------------------------------------------------------------
# ChrF++


def test_chrf_identity():
    assert chrf_pp("a small cat", ["a small cat"]) == pytest.approx(1.0)


def test_chrf_disjoint_characters():
    assert chrf_pp("aaa", ["zzz"]) == 0.0


def test_chrf_matches_enumeration_oracle():
    rng = np.random.default_rng(1)
    for _ in range(200):
        cand = random_sentence(rng, int(rng.integers(1, 9)))
        refs = [random_sentence(rng, int(rng.integers(1, 9)))
                for _ in range(int(rng.integers(1, 3)))]
        assert chrf_pp(cand, refs) == pytest.approx(chrf_oracle(cand, refs), abs=1e-9)


def test_chrf_range():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = chrf_pp(random_sentence(rng, 5), [random_sentence(rng, 5)])
        assert 0.0 <= v <= 1.0


def test_scores_zero_iff_no_overlap():
    rng = np.random.default_rng(7)
    for _ in range(100):
        cand = random_sentence(rng, int(rng.integers(1, 7)))
        ref = random_sentence(rng, int(rng.integers(1, 7)))
        cand_tok, ref_tok = tokenize(cand), tokenize(ref)
        rouge_f = rouge_l(cand_tok, [ref_tok])["f"]
        assert (rouge_f == 0.0) == (not set(cand_tok) & set(ref_tok))
        chrf = chrf_pp(cand, [ref])
        shares_char = bool(set("".join(cand.split())) & set("".join(ref.split())))
        assert (chrf > 0.0) == shares_char


# ---------------------------------------------------------------------------
# CLIPScore


def emb(vec):
    return np.asarray(vec, dtype=float)


def test_clip_score_identical_direction():
    assert clip_score(emb([1, 0]), emb([2, 0])) == pytest.approx(2.5)


def test_clip_score_orthogonal_and_negative_clamped():
    assert clip_score(emb([1, 0]), emb([0, 1])) == 0.0
    assert clip_score(emb([1, 0]), emb([-1, 0])) == 0.0


def test_clip_score_scale_invariant():
    rng = np.random.default_rng(3)
    u, v = rng.standard_normal(8), rng.standard_normal(8)
    base = clip_score(u, v)
    assert clip_score(3.7 * u, 0.2 * v) == pytest.approx(base)


# ---------------------------------------------------------------------------
# external scorer protocol


class StubScorer:
    """Line-delimited JSON scorer over TCP for tests.

    Keeps each raw request line it received in `requests`; answers with the
    fixed line `reply` when one is given.
    """

    def __init__(self, score=0.5, drop_first_id=False, reply=None, port=0):
        outer = self

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                line = self.rfile.readline()
                outer.requests.append(line)
                if outer.reply is not None:
                    self.wfile.write(outer.reply)
                    return
                request = json.loads(line.decode())
                scores = [{"id": item["id"], "score": outer.score}
                          for item in request["items"]]
                if outer.drop_first_id and scores:
                    scores = scores[1:]
                self.wfile.write((json.dumps({"metric": request["metric"],
                                              "scores": scores}) + "\n").encode())

        self.score = score
        self.drop_first_id = drop_first_id
        self.reply = reply
        self.requests = []
        socketserver.ThreadingTCPServer.allow_reuse_address = True
        self.server = socketserver.ThreadingTCPServer(("127.0.0.1", port), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def endpoint(self):
        host, port = self.server.server_address
        return f"{host}:{port}"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def stub_scorer():
    scorer = StubScorer()
    yield scorer
    scorer.close()


def test_external_score_round_trip(stub_scorer):
    scores = external_score(stub_scorer.endpoint, "BERTScore",
                            [("i0", "cand", ["ref"]), ("i1", "cand2", ["ref2"])])
    assert scores == {"i0": 0.5, "i1": 0.5}


def test_external_score_request_bytes_are_pinned(stub_scorer):
    """The request line is UTF-8 JSON, non-ASCII text unescaped, keys in order."""
    external_score(stub_scorer.endpoint, "BERTScore",
                   [("i0", "Der Bär schläft — 夢", ("naïve café", "x")),
                    ("i1", 'c"q\\n', [])])
    assert stub_scorer.requests == [
        b'{"metric": "BERTScore", "items": [{"id": "i0", "candidate": '
        b'"Der B\xc3\xa4r schl\xc3\xa4ft \xe2\x80\x94 \xe5\xa4\xa2", "references": '
        b'["na\xc3\xafve caf\xc3\xa9", "x"]}, {"id": "i1", "candidate": "c\\"q\\\\n", '
        b'"references": []}]}\n']


def test_external_score_empty_items():
    assert external_score("127.0.0.1:1", "BLEURT", []) == {}


def test_external_score_missing_id_is_protocol_error():
    """A reply that breaks the protocol makes the scorer unavailable at once."""
    scorer = StubScorer(drop_first_id=True)
    try:
        with pytest.raises(ScorerUnavailable, match="not a permutation"):
            external_score(scorer.endpoint, "BLEURT", [("i0", "c", ["r"])])
        assert len(scorer.requests) == 1          # no retry
    finally:
        scorer.close()


BAD_REPLIES = {
    "not-json": b"not json at all\n",
    "not-utf8": b'{"metric": "BLEURT", "scores": [{"id": "i0", "score": 0.5}]}\xff\n',
    "nan-score": b'{"metric": "BLEURT", "scores": [{"id": "i0", "score": NaN}]}\n',
    "infinite-score": b'{"metric": "BLEURT", "scores": [{"id": "i0", "score": Infinity}]}\n',
}


@pytest.mark.parametrize("reply", BAD_REPLIES.values(), ids=BAD_REPLIES.keys())
def test_external_score_garbage_is_protocol_error(reply):
    scorer = StubScorer(reply=reply)
    try:
        with pytest.raises(ScorerUnavailable, match="malformed|non-finite"):
            external_score(scorer.endpoint, "BLEURT", [("i0", "c", ["r"])])
        assert len(scorer.requests) == 1          # no retry
    finally:
        scorer.close()


def test_external_score_unreachable_retries_then_raises():
    with pytest.raises(ScorerUnavailable, match="3 attempts"):
        external_score("127.0.0.1:9", "BLEURT", [("i0", "c", ["r"])],
                       timeout=0.2, attempts=3, backoff=0.01)


def test_external_score_recovers_after_transient_refusal():
    import socket
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()                      # port now refuses connections

    holder = {}

    def bring_up():
        holder["scorer"] = StubScorer(score=0.25, port=port)

    timer = threading.Timer(0.25, bring_up)
    timer.start()
    try:
        scores = external_score(f"127.0.0.1:{port}", "BLEURT", [("i0", "c", ["r"])],
                                timeout=1.0, attempts=5, backoff=0.2)
        assert scores == {"i0": 0.25}
    finally:
        timer.join()
        if "scorer" in holder:
            holder["scorer"].close()


# ---------------------------------------------------------------------------
# evaluate_run and report


class Row:
    def __init__(self, image_ref, story_text, style="plain"):
        self.image_ref = image_ref
        self.story_text = story_text
        self.style = style


def test_identity_candidate_scores_100():
    rows = [Row("img0", "a cat sat on the mat")]
    refs = {"img0": ["a cat sat on the mat"]}
    report = evaluate_run(rows, refs)
    item = report.per_item["item00000"]
    assert item["ROUGE-L"] == pytest.approx(100.0)
    assert item["ChrF++"] == pytest.approx(100.0)
    assert report.corpus["ROUGE-L"] == pytest.approx(100.0)


def test_report_columns_follow_table_order(stub_scorer):
    rows = [Row("img0", "a cat")]
    refs = {"img0": ["a cat"]}
    report = evaluate_run(rows, refs, scorer_endpoint=stub_scorer.endpoint)
    assert tuple(REPORT_COLUMNS) == ("ROUGE-L", "ChrF++", "MoverScore", "BERTScore",
                                     "BLEURT", "BARTScore", "CLIPScore")
    assert all(report.per_item["item00000"][m] == 0.5 for m in EXTERNAL_METRICS)
    assert report.corpus["MoverScore"] == pytest.approx(0.5)
    assert "CLIPScore" in report.unavailable     # no encoder given


def test_corpus_mean_matches_independent_recomputation():
    rng = np.random.default_rng(4)
    rows, refs = [], {}
    for i in range(12):
        story = random_sentence(rng, 6)
        gold = random_sentence(rng, 6)
        rows.append(Row(f"img{i}", story))
        refs[f"img{i}"] = [gold]
    report = evaluate_run(rows, refs)
    for metric in ("ROUGE-L", "ChrF++"):
        values = [report.per_item[i][metric] for i in report.per_item]
        assert abs(report.corpus[metric] - sum(values) / len(values)) < 1e-9


def test_evaluate_is_permutation_invariant():
    rng = np.random.default_rng(5)
    rows, refs = [], {}
    for i in range(8):
        rows.append(Row(f"img{i}", random_sentence(rng, 5)))
        refs[f"img{i}"] = [random_sentence(rng, 5)]
    a = evaluate_run(rows, refs)
    b = evaluate_run(rows[::-1], refs)
    for metric in ("ROUGE-L", "ChrF++"):
        assert a.corpus[metric] == pytest.approx(b.corpus[metric], abs=1e-12)


def test_missing_references_skip_item_with_diagnostic():
    rows = [Row("img0", "a cat"), Row("ghost", "a dog")]
    report = evaluate_run(rows, {"img0": ["a cat"]})
    assert len(report.per_item) == 1
    assert any(d.get("skipped") == "no references" for d in report.diagnostics)


def test_multiple_references_take_the_best_match():
    rows = [Row("img0", "a red cat sat")]
    weak_only = evaluate_run(rows, {"img0": ["the blue dog ran"]})
    both = evaluate_run(rows, {"img0": ["the blue dog ran", "a red cat sat"]})
    assert both.per_item["item00000"]["ROUGE-L"] == pytest.approx(100.0)
    assert both.per_item["item00000"]["ChrF++"] == pytest.approx(100.0)
    assert weak_only.per_item["item00000"]["ROUGE-L"] < 100.0


def test_scorer_failure_marks_metric_unavailable_not_zero():
    rows = [Row("img0", "a cat")]
    report = evaluate_run(rows, {"img0": ["a cat"]},
                          scorer_endpoint="127.0.0.1:9", scorer_timeout=0.1)
    assert set(EXTERNAL_METRICS) <= set(report.unavailable)
    assert all(m not in report.per_item["item00000"] for m in EXTERNAL_METRICS)


@pytest.mark.parametrize("reply", BAD_REPLIES.values(), ids=BAD_REPLIES.keys())
def test_bad_scorer_reply_marks_metric_unavailable(reply):
    scorer = StubScorer(reply=reply)
    try:
        report = evaluate_run([Row("img0", "a cat")], {"img0": ["a cat"]},
                              scorer_endpoint=scorer.endpoint)
    finally:
        scorer.close()
    assert set(EXTERNAL_METRICS) <= set(report.unavailable)
    assert {d["metric"] for d in report.diagnostics if "unavailable" in d} == \
        set(EXTERNAL_METRICS)
    assert all(m not in report.per_item["item00000"] for m in EXTERNAL_METRICS)
    assert all(m not in report.corpus for m in EXTERNAL_METRICS)
    assert "NaN" not in report.to_jsonl() and "Infinity" not in report.to_jsonl()


def test_story_that_is_not_utf8_marks_metric_unavailable(stub_scorer):
    report = evaluate_run([Row("img0", "a \ud800 cat")], {"img0": ["a cat"]},
                          scorer_endpoint=stub_scorer.endpoint)
    assert set(EXTERNAL_METRICS) <= set(report.unavailable)
    assert stub_scorer.requests == []
    assert all(m not in report.per_item["item00000"] for m in EXTERNAL_METRICS)


def test_clip_score_included_with_encoder(tmp_path):
    from ppst.encoding import HashedNgramEncoder
    from ppst.synthetic import render_text_image
    encoder = HashedNgramEncoder(embed_dim=32, n_buckets=256)
    caption = "a red cat on the table"
    image = render_text_image(tmp_path / "img.pgm", caption)
    rows = [Row(str(image), caption)]
    report = evaluate_run(rows, {str(image): [caption]}, encoder=encoder)
    meta = report.item_meta["item00000"]
    assert report.per_item["item00000"]["CLIPScore"] == \
        pytest.approx(100.0 * meta["clip_score_raw"])
    assert "CLIPScore" not in report.unavailable
    assert "clip_text_truncated_to" not in meta


def test_clip_truncation_is_recorded(tmp_path):
    from ppst.encoding import HashedNgramEncoder
    from ppst.synthetic import render_text_image
    encoder = HashedNgramEncoder(embed_dim=32, n_buckets=256, max_text_tokens=4)
    caption = "a red cat"
    image = render_text_image(tmp_path / "img.pgm", caption)
    long_story = " ".join(["cat"] * 30)
    report = evaluate_run([Row(str(image), long_story)], {str(image): [caption]},
                          encoder=encoder)
    assert report.item_meta["item00000"]["clip_text_truncated_to"] == 4


def test_clip_score_turns_only_package_errors_into_diagnostics(tmp_path, monkeypatch):
    """A deleted image costs its item only the CLIPScore, with a diagnostic, and
    `ppst evaluate` exits 0; a programming error is not swallowed."""
    from ppst import metrics
    from ppst.cli import main
    from ppst.corpus import ImageCaptionPair, save_caption_pairs
    from ppst.encoding import HashedNgramEncoder
    from ppst.synthetic import render_text_image
    captions = ["a red cat on the table", "a blue dog on the grass"]
    images = [render_text_image(tmp_path / f"img{i}.pgm", c)
              for i, c in enumerate(captions)]
    gold, records = tmp_path / "gold.jsonl", tmp_path / "records.jsonl"
    save_caption_pairs([ImageCaptionPair(str(p), c, "test")
                        for p, c in zip(images, captions)], gold)
    records.write_text("".join(json.dumps({"image_ref": str(p), "story": c}) + "\n"
                               for p, c in zip(images, captions)))
    images[1].unlink()
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"artifacts_dir": str(tmp_path / "runs"),
                                  "encoder": {"embed_dim": 32, "n_buckets": 256}}))
    assert main(["--config", str(config), "evaluate", "--records", str(records),
                 "--gold", str(gold)]) == 0
    (report,) = (tmp_path / "runs").glob("evaluate-*/reports/report.jsonl")
    rows = [json.loads(line) for line in report.read_text().splitlines()]
    metrics_of = {row["item_id"]: row["metrics"] for row in rows if row["kind"] == "item"}
    assert set(metrics_of["item00000"]) == {"ROUGE-L", "ChrF++", "CLIPScore"}
    assert metrics_of["item00001"] == {"ROUGE-L": 100.0, "ChrF++": 100.0}
    (error,) = [d for d in rows[-1]["diagnostics"] if "clip_score_error" in d]
    assert error["item_id"] == "item00001" and str(images[1]) in error["clip_score_error"]

    def broken(*args):
        raise TypeError("clip_score() got an unexpected argument")

    monkeypatch.setattr(metrics, "clip_score", broken)
    with pytest.raises(TypeError):
        evaluate_run([Row(str(images[0]), captions[0])], {str(images[0]): [captions[0]]},
                     encoder=HashedNgramEncoder(embed_dim=32, n_buckets=256))


def test_report_serializations(tmp_path):
    report = MetricReport(per_item={"item00000": {"ROUGE-L": 50.0, "ChrF++": 40.0}},
                          item_meta={"item00000": {"image_ref": "img0"}},
                          unavailable=["BLEURT"])
    lines = report.to_jsonl().strip().split("\n")
    kinds = [json.loads(l)["kind"] for l in lines]
    assert kinds == ["item", "corpus"]
    corpus = json.loads(lines[-1])
    assert corpus["metrics"]["ROUGE-L"] == 50.0
    assert corpus["unavailable"] == ["BLEURT"]
    table = report.to_table()
    assert "ROUGE-L" in table.splitlines()[0]
    assert "corpus" in table
