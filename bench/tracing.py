"""Span tracing of ppst's layers from outside the package.

`Tracer.install()` replaces each traced function where its caller looks it
up: methods on their class, module functions in every `ppst` module that
binds them by name (`cli` imports `generate` and `evaluate_run`; `adapters`
and `mapper` import `masked_cross_entropy`). Each call records one span
`[name, start, end, parent, request, work]`, where `work` is a count computed
from argument or result shapes (positions, matmul flop, raster bytes, story
tokens). Spans stay in memory until `write()` at the end of the run.
`uninstall()` puts every original back, so untraced code runs the library
untouched.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter


def _positions(args, out):
    embeds = args[1]
    return embeds.shape[0] * embeds.shape[1]


def _linear_forward_flop(args, out):
    layer, x = args[0], args[1]
    return 2 * x.size * layer.w.value.shape[1]


def _linear_backward_flop(args, out):
    # dx = dy @ W.T and dW = x.T @ dy, each the size of the forward matmul
    layer, x = args[0], args[2]
    return 4 * x.size * layer.w.value.shape[1]


# (span name, module, class or None for a module function, attribute, work)
TRACED = [
    ("lm.forward_embeds", "lm", "CausalTransformerLM", "forward_embeds", _positions),
    ("lm.backward", "lm", "CausalTransformerLM", "backward", None),
    ("nn.Linear.forward", "nn", "Linear", "forward", _linear_forward_flop),
    ("nn.Linear.backward", "nn", "Linear", "backward", _linear_backward_flop),
    ("nn.LayerNorm.forward", "nn", "LayerNorm", "forward", None),
    ("nn.LayerNorm.backward", "nn", "LayerNorm", "backward", None),
    ("nn.CausalSelfAttention.forward", "nn", "CausalSelfAttention", "forward", None),
    ("nn.CausalSelfAttention.backward", "nn", "CausalSelfAttention", "backward", None),
    ("nn.Mlp.forward", "nn", "Mlp", "forward", None),
    ("nn.Mlp.backward", "nn", "Mlp", "backward", None),
    ("nn.masked_cross_entropy", "nn", None, "masked_cross_entropy", None),
    ("nn.Adam.step", "nn", "Adam", "step", None),
    ("adapters.next_token_logits", "adapters", "StyledLanguageModel",
     "next_token_logits", None),
    ("adapters.AdapterBlock.forward", "adapters", "AdapterBlock", "forward", None),
    ("adapters.AdapterBlock.backward", "adapters", "AdapterBlock", "backward", None),
    ("adapters.train_adapter", "adapters", None, "train_adapter", None),
    ("adapters.train_full_finetune", "adapters", None, "train_full_finetune", None),
    ("generation.generate", "generation", None, "generate",
     lambda args, out: out.token_count),
    ("generation.step_log_probs", "generation", None, "step_log_probs",
     lambda args, out: int(out[1])),
    ("encoding.encode_image", "encoding", "HashedNgramEncoder", "encode_image", None),
    ("encoding.encode_text", "encoding", "HashedNgramEncoder", "encode_text", None),
    ("mapper.map_prefix", "mapper", "PrefixMapper", "map_prefix", None),
    ("mapper.prefix_batch_loss", "mapper", None, "prefix_batch_loss", None),
    ("mapper.train_mapper", "mapper", None, "train_mapper", None),
    ("metrics.rouge_l", "metrics", None, "rouge_l", None),
    ("metrics.chrf_pp", "metrics", None, "chrf_pp", None),
    ("metrics.clip_score", "metrics", None, "clip_score", None),
    ("metrics.evaluate_run", "metrics", None, "evaluate_run", None),
    ("artifacts.load_tensors", "artifacts", None, "load_tensors", None),
    ("artifacts.save_tensors", "artifacts", None, "save_tensors", None),
    ("artifacts.fingerprint_file", "artifacts", None, "fingerprint_file", None),
    ("artifacts.tensors_fingerprint", "artifacts", None, "tensors_fingerprint", None),
    ("cli.cmd_generate", "cli", None, "cmd_generate", None),
    ("cli.cmd_evaluate", "cli", None, "cmd_evaluate", None),
    ("cli.ensure_base_lm", "cli", None, "ensure_base_lm", None),
]

# A span with this name, opened directly under the given parent, starts the
# spans of a new image, so each image of `generate` and `evaluate` has its id.
REQUEST_STARTS = {
    "encoding.encode_image": "cli.cmd_generate",
    "metrics.rouge_l": "metrics.evaluate_run",
}

TRAINING_CALLS = {"mapper.train_mapper": "train_mapper",
                  "adapters.train_adapter": "train_adapter",
                  "adapters.train_full_finetune": "train_full_finetune"}

NAME, START, END, PARENT, REQUEST, WORK = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.requests = 0
        self.patches = []

    # -- recording ------------------------------------------------------------

    def open(self, name, new_request=False):
        # stack entries are [span index, request of the spans opened under it]
        parent, request = self.stack[-1] if self.stack else (-1, 0)
        if new_request or (parent >= 0
                           and REQUEST_STARTS.get(name) == self.spans[parent][NAME]):
            self.requests += 1
            request = self.requests
            if self.stack:
                # the image's later steps are siblings of the span that started it
                self.stack[-1][1] = request
        rec = [name, 0.0, 0.0, parent, request, 0]
        self.stack.append([len(self.spans), request])
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def close(self, rec):
        rec[END] = perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name, new_request=False):
        rec = self.open(name, new_request)
        try:
            yield rec
        finally:
            self.close(rec)

    def add_work(self, amount):
        """Add a count to the innermost open span."""
        if self.stack:
            self.spans[self.stack[-1][0]][WORK] += amount

    # -- patching -------------------------------------------------------------

    def _wrap(self, name, fn, work):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if work is not None:
                rec[WORK] += work(args, out)
            return out

        return traced

    def _replace(self, owner, attr, new):
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ppst" or key.startswith("ppst."))]
        for name, module_name, owner, attr, work in TRACED:
            module = sys.modules[f"ppst.{module_name}"]
            if owner is not None:
                cls = getattr(module, owner)
                self._replace(cls, attr, self._wrap(name, cls.__dict__[attr], work))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, work)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._replace(mod, attr, wrapped)

        # encode_image reads its raster through load_raster: count those bytes
        encoding = sys.modules["ppst.encoding"]
        load_raster = encoding.load_raster

        def counted(image_ref):
            pixels = load_raster(image_ref)
            self.add_work(pixels.nbytes)
            return pixels

        self._replace(encoding, "load_raster", counted)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    # -- output ---------------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, start, end, parent, request, work) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "work": work}) + "\n")


def layer_metrics(spans, names):
    """The per-layer metrics `names`, computed from the recorded spans.

    Only spans under `bench.timed` count, except `setup.lm.backward.calls`,
    which counts backward spans under `bench.setup`. A span inside a training
    call is keyed `<phase>.<span name>`, with phase one of train_mapper,
    train_adapter and train_full_finetune; other spans keep their name.
    Suffixes: `.calls`, `.self_s` (duration minus the time child spans cover),
    `.share` (duration over the timed phase's wall time) and `.flop`,
    `.bytes`, `.positions` (the span's work count).
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child_s = [0.0] * n
    phase = [None] * n
    train = [None] * n
    in_generate = [False] * n
    keys = [None] * n
    for i, s in enumerate(spans):     # a parent always precedes its children
        name, p = s[NAME], s[PARENT]
        if p >= 0:
            child_s[p] += dur[i]
            phase[i], train[i], in_generate[i] = phase[p], train[p], in_generate[p]
        keys[i] = f"{train[i]}.{name}" if train[i] else name
        if name in ("bench.setup", "bench.timed"):
            phase[i] = name
        train[i] = TRAINING_CALLS.get(name, train[i])
        in_generate[i] = in_generate[i] or name == "generation.generate"

    calls = defaultdict(int)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    work = defaultdict(int)
    timed_wall = 0.0
    generate_positions = 0
    setup_backward = 0
    timed_spans = 0
    for i, s in enumerate(spans):
        name, key = s[NAME], keys[i]
        if phase[i] == "bench.setup" and name == "lm.backward":
            setup_backward += 1
        if phase[i] != "bench.timed":
            continue
        if name == "bench.timed":
            timed_wall += dur[i]
            continue
        timed_spans += 1
        calls[key] += 1
        self_s[key] += dur[i] - child_s[i]
        incl_s[key] += dur[i]
        work[key] += s[WORK]
        if in_generate[i] and name == "lm.forward_embeds":
            generate_positions += s[WORK]

    story_tokens = work["generation.generate"]
    special = {
        "lm.positions_per_story_token":
            generate_positions / story_tokens if story_tokens else 0.0,
        "lm.backward.calls": sum(v for k, v in calls.items() if k.endswith("lm.backward")),
        "generation.story_tokens": story_tokens,
        "generation.ngram_relaxations": work["generation.step_log_probs"],
        "setup.lm.backward.calls": setup_backward,
        "trace.spans": timed_spans,
    }
    out = {}
    for metric in names:
        key, _, stat = metric.rpartition(".")
        if metric in special:
            out[metric] = special[metric]
        elif stat == "calls":
            out[metric] = calls[key]
        elif stat == "self_s":
            out[metric] = self_s[key]
        elif stat == "share":
            out[metric] = incl_s[key] / timed_wall if timed_wall else 0.0
        elif stat in ("flop", "bytes", "positions"):
            out[metric] = work[key]
    return out
