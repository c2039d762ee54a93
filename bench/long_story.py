"""long-story: decode-bound story generation through the `ppst` command line.

Set-up writes books, a caption training set and three 24x24 rendered-caption
images, then runs `build-corpus`, `train-mapper` and `train-adapter` for the
action and romance styles with a d128x4 LM (`max_seq_len` 128) and the
default encoder, one training epoch each. One timed operation runs
`generate --force` on one image under the default decode settings (beam 5,
`min_length` 750) and then `evaluate --force` on its record, in-process,
with no external scorer. A 10-row prefix leaves 118 story positions and eos
stays masked for all of them, so every story is exactly 118 tokens and the
decode work per story is fixed. Image k of three always decodes with view k:
the action adapter, the romance adapter, or the plain LM.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import warnings
from time import perf_counter

import numpy as np

import ppst.cli as cli
from ppst.corpus import ImageCaptionPair, save_caption_pairs
from ppst.metrics import EXTERNAL_METRICS
from ppst.synthetic import (make_book_files, make_caption, make_caption_dataset,
                            render_text_image)

from common import check

VIEWS = ("action", "romance", "plain")
FULL = {"train_pairs": 40,
        "config": {"lm": {"n_layer": 4, "d_model": 128, "max_seq_len": 128},
                   "mapper": {"max_epochs": 1}, "adapters": {"max_epochs": 1}}}
TINY = {"train_pairs": 8,
        "config": {"lm": {"n_layer": 1, "d_model": 8, "max_seq_len": 24},
                   "encoder": {"embed_dim": 16, "n_buckets": 64},
                   "mapper": {"hidden_dim": 16, "prefix_length": 4, "max_epochs": 1},
                   "adapters": {"max_epochs": 1}}}
# Upper ends of the native report columns: CLIPScore is 100 * w * max(cos, 0),
# so its ceiling is 100 * w with the CLI's default weight w = 2.5.
NATIVE_METRICS = {"ROUGE-L": 100.0, "ChrF++": 100.0,
                  "CLIPScore": 100.0 * cli.DEFAULT_CONFIG["eval"]["clip_weight"]}
# output checks of one story, each counted on its own
RECORD_CHECKS = ("length", "3-grams", "identity")
REPORT_CHECKS = ("unavailable", *NATIVE_METRICS, "no external values")


class StoryClock:
    """Times each image of `cmd_generate` from its path to its record.

    An image starts at the first `encode_image` after the previous record and
    ends when `generate` returns its record, which is kept for the checks.
    Both hooks only read the clock.
    """

    def __init__(self):
        self.seconds = []
        self.records = []
        self.started = None

    @contextlib.contextmanager
    def installed(self):
        encoder_cls = cli.HashedNgramEncoder
        encode_image = encoder_cls.__dict__["encode_image"]
        generate = cli.generate
        clock = self

        def timed_encode(encoder, image_ref):
            if clock.started is None:
                clock.started = perf_counter()
            return encode_image(encoder, image_ref)

        def timed_generate(*args, **kwargs):
            record = generate(*args, **kwargs)
            clock.seconds.append(perf_counter() - clock.started)
            clock.records.append(record)
            clock.started = None
            return record

        encoder_cls.encode_image = timed_encode
        cli.generate = timed_generate
        try:
            yield self
        finally:
            encoder_cls.encode_image = encode_image
            cli.generate = generate


def _cli(*argv):
    """Run one `ppst` command in-process; its console output is discarded."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        # every story is clipped by the context; the record keeps the warning
        warnings.simplefilter("ignore", RuntimeWarning)
        return cli.main(list(argv))


class LongStory:
    name = "long-story"
    cycle = len(VIEWS)    # one story per view
    setup_repeats = 6

    def __init__(self, seed, tiny, workdir):
        self.seed = seed
        self.size = TINY if tiny else FULL
        self.workdir = workdir
        self.first_lines = {}

    def setup(self, repeat):
        seed, size = self.seed, self.size
        os.environ.pop(cli.SCORER_ENDPOINT_ENV, None)
        ws = self.workdir / f"setup{repeat}"
        books = make_book_files(ws / "books", seed=seed)
        pairs = make_caption_dataset(ws / "train_images", size["train_pairs"], seed=seed)
        save_caption_pairs(pairs, ws / "captions.jsonl")
        rng = np.random.default_rng([seed, 1])
        self.images = []
        gold = []
        for k in range(len(VIEWS)):
            caption = make_caption(rng)
            (ws / f"images{k}").mkdir()
            path = render_text_image(ws / f"images{k}" / "img.pgm", caption)
            self.images.append(path)
            gold.append(ImageCaptionPair(image_ref=str(path), caption_text=caption,
                                         split="test"))
        self.gold = ws / "gold.jsonl"
        save_caption_pairs(gold, self.gold)
        config = {
            "seed": seed,
            "artifacts_dir": str(ws / "runs"),
            "corpus": {"books_dir": str(books), "catalog": str(books / "catalog.tsv"),
                       "captions": str(ws / "captions.jsonl"), "caption_fraction": 1.0},
            **size["config"],
        }
        self.config = ws / "config.json"
        self.config.write_text(json.dumps(config, indent=2))
        self.runs = ws / "runs"
        for argv in (["build-corpus"], ["train-mapper"],
                     ["train-adapter", "--style", "action"],
                     ["train-adapter", "--style", "romance"]):
            code = _cli("--config", str(self.config), *argv)
            check(code == 0, f"set-up `ppst {' '.join(argv)}` exited with {code}")
        # eos is masked until min_length, so a story fills the model's context
        resolved = cli.load_config(self.config)
        self.story_len = resolved["lm"]["max_seq_len"] - resolved["mapper"]["prefix_length"]
        check(resolved["decode"]["min_length"] >= self.story_len,
              "workload requires eos to stay masked for the whole story")

    def run_op(self, i, tally):
        k = i % len(VIEWS)
        view = VIEWS[k]
        label = f"story {i} ({view})"
        clock = StoryClock()
        record = None
        with tally.item(f"{label}: generate"), clock.installed():
            started = perf_counter()
            code = _cli("--config", str(self.config), "--force", "generate",
                        "--style", view, "--images", str(self.images[k].parent))
            generate_s = perf_counter() - started
            check(code == 0, f"`ppst generate` exited with {code}")
            records_path, = self.runs.glob(f"generate-{view}-*/records/records.jsonl")
            lines = records_path.read_text(encoding="utf-8").splitlines()
            check(len(lines) == 1 and "story" in json.loads(lines[0])
                  and len(clock.records) == 1, f"`ppst generate` wrote {lines}")
            record = clock.records[0]
        if record is None:
            tally.skip(label, RECORD_CHECKS + ("evaluate",) + REPORT_CHECKS,
                       "generate failed")
            return []
        self._check_record(label, k, record, tally)

        report = None
        with tally.item(f"{label}: evaluate"):
            started = perf_counter()
            code = _cli("--config", str(self.config), "--force", "evaluate",
                        "--records", str(records_path), "--gold", str(self.gold))
            evaluate_s = perf_counter() - started
            check(code == 0, f"`ppst evaluate` exited with {code}")
            report = self._report(k)
        if report is None:
            tally.skip(label, REPORT_CHECKS, "evaluate failed")
            return []
        self._check_report(label, report, tally)
        return [{"part": view, "s": clock.seconds[0], "tokens": record.token_count,
                 "generate_s": generate_s, "evaluate_s": evaluate_s}]

    def _check_record(self, label, k, record, tally):
        tally.check(f"{label}: length",
                    record.token_count == self.story_len and not record.finished,
                    f"story has {record.token_count} tokens (finished={record.finished}), "
                    f"expected {self.story_len} unfinished")
        relaxed = any(w.startswith("n-gram block lifted") for w in record.warnings)
        ids = record.token_ids
        trigrams = [tuple(ids[j: j + 3]) for j in range(len(ids) - 2)]
        tally.check(f"{label}: 3-grams", relaxed or len(set(trigrams)) == len(trigrams),
                    "story repeats a 3-gram without an n-gram relaxation warning")
        line = record.to_json_line()
        if k in self.first_lines:
            tally.check(f"{label}: identity", line == self.first_lines[k],
                        f"record for image {k} differs from its first decode")
        else:
            self.first_lines[k] = line

    def _report(self, k):
        """The rows of the one report whose single item is image k."""
        reports = [[json.loads(line) for line in
                    path.read_text(encoding="utf-8").splitlines()]
                   for path in self.runs.glob("evaluate-*/reports/report.jsonl")]
        mine = [r for r in reports
                if [row.get("image_ref") for row in r] == [str(self.images[k]), None]]
        check(len(mine) == 1, f"expected one single-item report for {self.images[k]}")
        return mine[0]

    def _check_report(self, label, report, tally):
        """Native scores in range, external metrics unavailable and without a value."""
        item, corpus = report
        tally.check(f"{label}: unavailable",
                    sorted(corpus.get("unavailable", [])) == sorted(EXTERNAL_METRICS),
                    "external metrics are not all reported unavailable")
        scores = item["metrics"]
        for metric, ceiling in NATIVE_METRICS.items():
            value = scores.get(metric)
            tally.check(f"{label}: {metric}",
                        value is not None and math.isfinite(value)
                        and 0.0 <= value <= ceiling,
                        f"{metric} = {value}")
        tally.check(f"{label}: no external values",
                    not any(metric in scores for metric in EXTERNAL_METRICS),
                    f"an unavailable metric has a value: {scores}")

    def metrics(self, samples):
        seconds = [s["s"] for s in samples]
        return {
            "story_tok_per_s": (statistics.median(s["tokens"] / s["s"] for s in samples),
                                "tok/s"),
            "story_s_p50": (statistics.median(seconds), "s"),
            "generate_s": (statistics.median(s["generate_s"] for s in samples), "s"),
            "evaluate_s": (statistics.median(s["evaluate_s"] for s in samples), "s"),
            "stories": (len(samples), "count"),
        }
