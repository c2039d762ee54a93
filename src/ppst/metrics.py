"""Automatic evaluation harness.

Native metrics, whose standard parameters are module constants: ROUGE-L (LCS
F-measure, recall weight ROUGE_BETA = 1.2), ChrF++ (character 1..6-gram plus
word 1..2-gram F, CHRF_CHAR_ORDERS and CHRF_WORD_ORDERS, beta CHRF_BETA = 2,
averaged over orders), and CLIPScore (w * max(cos, 0), w = `clip_weight`,
2.5 by default; an unreadable image or a story the encoder cannot encode is
a per-item diagnostic). Four model-based text metrics (MoverScore,
BERTScore, BLEURT, BARTScore) are delegated to an out-of-process scorer over
a newline-delimited JSON protocol:
`external_score(endpoint, "BLEURT", [(item_id, candidate, references), ...])`
returns {item_id: score}. A scorer that fails after retries, or replies with a
line that is not UTF-8 JSON, has a non-finite score or scores other ids,
raises ScorerUnavailable. Its columns are then reported as unavailable, as
without an endpoint; they are never silently zeroed.

Text tokenization for ROUGE-L: lowercase, punctuation split into separate
tokens. ChrF++ is case-sensitive; its character n-grams ignore whitespace.
Report tables carry native text metrics and CLIPScore on a x100 presentation
scale; external scorers keep their own native scales.
"""

from __future__ import annotations

import json
import math
import re
import socket
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, PpstError, ScorerUnavailable

REPORT_COLUMNS = ("ROUGE-L", "ChrF++", "MoverScore", "BERTScore", "BLEURT",
                  "BARTScore", "CLIPScore")
EXTERNAL_METRICS = ("MoverScore", "BERTScore", "BLEURT", "BARTScore")

ROUGE_BETA, CHRF_CHAR_ORDERS, CHRF_WORD_ORDERS, CHRF_BETA = 1.2, 6, 2, 2.0

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)


def tokenize(text, lowercase=True):
    """Words and punctuation marks as separate tokens."""
    if lowercase:
        text = text.lower()
    return _TOKEN_RE.findall(text)


# ---------------------------------------------------------------------------
# ROUGE-L


def lcs_length(a, b):
    """Longest-common-subsequence length via dynamic programming."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0] * (len(b) + 1)
        for j, y in enumerate(b, 1):
            curr[j] = prev[j - 1] + 1 if x == y else max(prev[j], curr[j - 1])
        prev = curr
    return prev[-1]


def _f_score(precision, recall, beta):
    denom = recall + beta * beta * precision
    if denom <= 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


def rouge_l(candidate, references):
    """LCS-based P/R/F against each reference; returns the max-F reference's triple.

    candidate: token sequence; references: list of token sequences. Values in
    [0, 1]. Empty candidate or empty reference list scores 0 with a warning.
    """
    references = [r for r in references if r]
    if not candidate or not references:
        warnings.warn("rouge_l: empty candidate or references, scoring 0", RuntimeWarning)
        return {"precision": 0.0, "recall": 0.0, "f": 0.0}
    best = {"precision": 0.0, "recall": 0.0, "f": -1.0}
    for ref in references:
        lcs = lcs_length(list(candidate), list(ref))
        precision = lcs / len(candidate)
        recall = lcs / len(ref)
        f = _f_score(precision, recall, ROUGE_BETA)
        if f > best["f"]:
            best = {"precision": precision, "recall": recall, "f": f}
    best["f"] = max(best["f"], 0.0)
    return best


# ---------------------------------------------------------------------------
# ChrF++


def _ngram_counter(seq, n):
    return Counter(tuple(seq[i: i + n]) for i in range(len(seq) - n + 1))


def _order_f(cand_seq, ref_seq, n):
    cand = _ngram_counter(cand_seq, n)
    ref = _ngram_counter(ref_seq, n)
    cand_total = sum(cand.values())
    ref_total = sum(ref.values())
    if cand_total == 0 and ref_total == 0:
        return None                       # order not observable on either side
    matches = sum(min(c, ref[g]) for g, c in cand.items())
    precision = matches / cand_total if cand_total else 0.0
    recall = matches / ref_total if ref_total else 0.0
    return _f_score(precision, recall, CHRF_BETA)


def chrf_pp(candidate, references):
    """Character 1..6-gram + word 1..2-gram F-score in [0, 1], max over references.

    Character n-grams are taken over the text with whitespace removed; word
    n-grams over punctuation-aware tokens (case kept). Per-order F values are
    arithmetically averaged, skipping orders absent from both sides.
    """
    references = [r for r in references if r]
    if not candidate or not references:
        warnings.warn("chrf_pp: empty candidate or references, scoring 0", RuntimeWarning)
        return 0.0
    cand_chars = "".join(candidate.split())
    cand_words = tokenize(candidate, lowercase=False)
    best = 0.0
    for ref in references:
        ref_chars = "".join(ref.split())
        ref_words = tokenize(ref, lowercase=False)
        scores = []
        for n in range(1, CHRF_CHAR_ORDERS + 1):
            f = _order_f(cand_chars, ref_chars, n)
            if f is not None:
                scores.append(f)
        for n in range(1, CHRF_WORD_ORDERS + 1):
            f = _order_f(cand_words, ref_words, n)
            if f is not None:
                scores.append(f)
        if scores:
            best = max(best, sum(scores) / len(scores))
    return best


# ---------------------------------------------------------------------------
# CLIPScore


def clip_score(u, v, w=2.5):
    """w * max(cosine(u, v), 0) of an image and a text vector from one encoder."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        return 0.0
    return w * max(float(u @ v / (nu * nv)), 0.0)


# ---------------------------------------------------------------------------
# external scorer client (newline-delimited JSON over TCP)


def external_score(endpoint, metric, items, timeout=10.0, attempts=3, backoff=0.1):
    """{item_id: score} for `items`, (item_id, candidate, references) triples,
    from one request/response round trip with exponential-backoff retries.

    Connection failures and timeouts are retried (attempts total); after the
    final failed attempt raises ScorerUnavailable. A reply line that is not
    UTF-8 JSON, has a non-finite score or does not score exactly the request
    ids raises ScorerUnavailable at once, without a retry; so does a request
    that cannot be encoded as UTF-8.
    """
    if not items:
        return {}
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigurationError(f"scorer endpoint must be host:port, got {endpoint!r}")
    payload = json.dumps({"metric": metric,
                          "items": [{"id": i, "candidate": c, "references": list(r)}
                                    for i, c, r in items]},
                         ensure_ascii=False) + "\n"
    try:
        payload = payload.encode("utf-8")
    except UnicodeEncodeError as exc:           # a lone surrogate in a story
        raise ScorerUnavailable(f"scorer request is not UTF-8: {exc}") from None
    last_error = None
    for attempt in range(attempts):
        if attempt:
            time.sleep(backoff * (2 ** (attempt - 1)))
        try:
            with socket.create_connection((host, int(port)), timeout=timeout) as conn:
                conn.sendall(payload)
                conn.shutdown(socket.SHUT_WR)
                with conn.makefile("rb") as reply:
                    raw = reply.readline()
        except OSError as exc:
            last_error = exc
            continue
        return _parse_response(raw, {i for i, _, _ in items})
    raise ScorerUnavailable(
        f"scorer at {endpoint} unreachable after {attempts} attempts: {last_error}")


def _parse_response(raw, expected_ids):
    try:
        scores = {entry["id"]: float(entry["score"]) for entry in json.loads(raw)["scores"]}
    except (ValueError, TypeError, KeyError):      # UnicodeDecodeError is a ValueError
        raise ScorerUnavailable(f"malformed scorer response: {raw[:200]!r}") from None
    bad = sorted(repr(i) for i, score in scores.items() if not math.isfinite(score))
    if bad:
        raise ScorerUnavailable(
            f"scorer response has non-finite scores for {', '.join(bad)[:200]}")
    if set(scores) != expected_ids:
        diff = ", ".join(sorted(map(repr, set(scores) ^ expected_ids)))
        raise ScorerUnavailable(
            f"scorer response ids are not a permutation of the request ids: {diff[:200]}")
    return scores


# ---------------------------------------------------------------------------
# report assembly


@dataclass
class MetricReport:
    per_item: dict = field(default_factory=dict)   # item_id -> {metric: value}
    item_meta: dict = field(default_factory=dict)  # item_id -> {"image_ref": ...}
    unavailable: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    @property
    def corpus(self):
        """metric -> mean over the items that have it."""
        values = {m: [row[m] for row in self.per_item.values() if m in row]
                  for m in REPORT_COLUMNS}
        return {m: float(np.mean(v)) for m, v in values.items() if v}

    def to_jsonl(self):
        lines = []
        for item_id in sorted(self.per_item):
            row = {"kind": "item", "item_id": item_id}
            row.update(self.item_meta.get(item_id, {}))
            row["metrics"] = {k: self.per_item[item_id][k]
                              for k in REPORT_COLUMNS if k in self.per_item[item_id]}
            lines.append(json.dumps(row, sort_keys=True, ensure_ascii=False))
        lines.append(json.dumps({"kind": "corpus", "metrics": self.corpus,
                                 "unavailable": sorted(self.unavailable),
                                 "diagnostics": self.diagnostics},
                                sort_keys=True, ensure_ascii=False))
        return "\n".join(lines) + "\n"

    def to_table(self):
        """Aligned plain-text table: one row per item plus the corpus mean."""
        cols = [c for c in REPORT_COLUMNS if c not in self.unavailable]
        header = ["item"] + list(cols)
        rows = []
        for item_id in sorted(self.per_item):
            metrics = self.per_item[item_id]
            rows.append([item_id] + [f"{metrics[c]:.2f}" if c in metrics else "-"
                                     for c in cols])
        corpus = self.corpus
        rows.append(["corpus"] + [f"{corpus[c]:.2f}" if c in corpus else "-" for c in cols])
        widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]
        fmt = "  ".join("{:>%d}" % w for w in widths)
        out = [fmt.format(*header), fmt.format(*["-" * w for w in widths])]
        out.extend(fmt.format(*r) for r in rows)
        if self.unavailable:
            out.append("unavailable: " + ", ".join(sorted(self.unavailable)))
        return "\n".join(out) + "\n"


def evaluate_run(records, references, encoder=None, scorer_endpoint=None,
                 clip_weight=2.5, scorer_timeout=10.0):
    """Score generated records against gold captions (and images via encoder).

    records: GenerationRecords (or anything with image_ref and story_text);
    references: {image_ref: [caption, ...]}. Native text metrics and CLIPScore
    land on the x100 scale; external metrics keep their native scale. Items
    without references are skipped with a per-item diagnostic.
    """
    if not 0 < scorer_timeout <= 86400:     # false for NaN too
        raise ConfigurationError("evaluate_run.scorer_timeout must be in (0, 86400] seconds")
    if not 0 < clip_weight < math.inf:
        raise ConfigurationError("evaluate_run.clip_weight must be positive and finite")
    report = MetricReport()
    evaluable = []
    for i, record in enumerate(records):
        item_id = f"item{i:05d}"
        image_ref = record.image_ref
        story = record.story_text
        refs = references.get(image_ref, [])
        if not refs:
            report.diagnostics.append(
                {"item_id": item_id, "image_ref": image_ref, "skipped": "no references"})
            continue
        report.item_meta[item_id] = {"image_ref": image_ref, "style": getattr(
            record, "style", "")}
        row = {}
        cand_tokens = tokenize(story)
        ref_tokens = [tokenize(r) for r in refs]
        row["ROUGE-L"] = 100.0 * rouge_l(cand_tokens, ref_tokens)["f"]
        row["ChrF++"] = 100.0 * chrf_pp(story, refs)
        if encoder is not None:
            try:
                image_emb = encoder.encode_image(image_ref)
                if story.strip():
                    raw = clip_score(image_emb, encoder.encode_text(story), clip_weight)
                    row["CLIPScore"] = 100.0 * raw
                    report.item_meta[item_id]["clip_score_raw"] = raw
                    window = getattr(encoder, "max_text_tokens", None)
                    if window is not None and len(story.split()) > window:
                        report.item_meta[item_id]["clip_text_truncated_to"] = window
            except PpstError as exc:      # an unreadable image or unencodable story
                report.diagnostics.append({"item_id": item_id, "image_ref": image_ref,
                                           "clip_score_error": str(exc)})
        report.per_item[item_id] = row
        evaluable.append((item_id, story, refs))

    if encoder is None:
        report.unavailable.append("CLIPScore")
    for metric in EXTERNAL_METRICS:
        if scorer_endpoint is None or not evaluable:
            report.unavailable.append(metric)
            continue
        try:
            scores = external_score(scorer_endpoint, metric, evaluable, timeout=scorer_timeout)
        except ScorerUnavailable as exc:
            report.unavailable.append(metric)
            report.diagnostics.append({"metric": metric, "unavailable": str(exc)})
            continue
        for item_id, score in scores.items():
            report.per_item[item_id][metric] = score
    return report
