import math
import warnings

import numpy as np
import pytest

from conftest import RandomTableLM, StatelessLM
from decode_oracle import exhaustive_best, greedy_rollout, oracle_step_logprobs
from ppst.adapters import StyledLanguageModel
from ppst.errors import ConfigurationError
from ppst.generation import (DecodeConfig, apply_repetition_penalty, apply_temperature,
                             block_ngrams, eos_length_decay, generate, mask_min_length,
                             rank_candidates, step_log_probs, top_k_filter)


def small_cfg(**kw):
    base = dict(beam_size=3, temperature=0.8, top_k=10, repetition_penalty=0.7,
                no_repeat_ngram=3, length_decay_factor=1.7, length_decay_start=2,
                min_length=2, max_length=4)
    base.update(kw)
    return DecodeConfig(**base)


# ---------------------------------------------------------------------------
# config


def test_defaults_follow_decoding_recipe():
    cfg = DecodeConfig(max_length=800)
    assert (cfg.beam_size, cfg.temperature, cfg.top_k) == (5, 0.8, 10)
    assert (cfg.repetition_penalty, cfg.no_repeat_ngram) == (0.7, 3)
    assert (cfg.length_decay_factor, cfg.length_decay_start) == (1.7, 20)
    assert cfg.min_length == 750


def test_max_length_defaults_to_min_plus_256():
    assert DecodeConfig().max_length == 750 + 256


@pytest.mark.parametrize("kw", [dict(beam_size=0), dict(top_k=0),
                                dict(no_repeat_ngram=1), dict(temperature=0.0),
                                dict(repetition_penalty=0.0),
                                dict(length_decay_factor=0.9), dict(temperature=math.nan),
                                dict(repetition_penalty=math.nan),
                                dict(length_decay_factor=math.nan), dict(temperature=math.inf),
                                dict(temperature=-math.inf), dict(repetition_penalty=math.inf),
                                dict(repetition_penalty=-math.inf),
                                dict(length_decay_factor=math.inf),
                                dict(length_decay_factor=-math.inf)])
def test_config_validation(kw):
    with pytest.raises(ConfigurationError):
        DecodeConfig(**kw)


# ---------------------------------------------------------------------------
# processors


def test_temperature_identity_and_scaling():
    logits = np.array([2.0, 0.0])
    assert np.array_equal(apply_temperature(logits, 1.0), logits)
    assert np.array_equal(apply_temperature(logits, 0.5), [4.0, 0.0])


def test_temperature_preserves_argmax():
    rng = np.random.default_rng(0)
    for _ in range(20):
        logits = rng.standard_normal(8)
        for t in (0.1, 0.8, 3.0):
            assert np.argmax(apply_temperature(logits, t)) == np.argmax(logits)


def test_repetition_penalty_conventions():
    logits = np.array([2.0, -1.0, 0.5])
    assert np.array_equal(apply_repetition_penalty(logits, [0, 1], 1.0), logits)
    out = apply_repetition_penalty(logits, [0, 1], 0.7)
    assert out[0] == pytest.approx(1.4)            # positive: multiplied
    assert out[1] == pytest.approx(-1.0 / 0.7)     # negative: divided
    assert out[2] == 0.5                           # never generated: untouched
    two = apply_repetition_penalty(np.array([logits, logits]), [[0, 1], [2, 2]], 0.7)
    assert np.array_equal(two[0], out)             # one history per row
    assert np.array_equal(two[1], [2.0, -1.0, 0.5 * 0.7])


def test_block_ngrams_direct_rule():
    logits = np.zeros(5)
    out = block_ngrams(logits, [1, 2, 3, 1, 2], 3)
    assert out[3] == -np.inf
    assert np.isfinite(np.delete(out, 3)).all()
    two = block_ngrams(np.zeros((2, 5)), [[1, 2, 3, 1, 2], [1, 2, 3, 1, 3]], 3)
    assert np.array_equal(two[0], out)
    assert np.isfinite(two[1]).all()               # (1, 3) never started a 3-gram


def test_block_ngrams_short_history_noop():
    logits = np.zeros(4)
    assert np.isfinite(block_ngrams(logits, [2], 3)).all()


def test_block_ngrams_matches_brute_force_scan():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(2, 5))
        ids = [int(t) for t in rng.integers(0, 6, size=40)]
        out = block_ngrams(np.zeros(6), ids, n)
        # brute force: collect every n-gram, test each candidate completion
        grams = {tuple(ids[i: i + n]) for i in range(len(ids) - n + 1)}
        expect = {tok for tok in range(6) if tuple(ids[-(n - 1):]) + (tok,) in grams}
        assert {int(t) for t in np.flatnonzero(np.isneginf(out))} == expect


def test_min_length_masking():
    logits = np.zeros(4)
    assert mask_min_length(logits, 10, 750, eos_id=0)[0] == -np.inf
    assert np.isfinite(mask_min_length(logits, 750, 750, eos_id=0)).all()
    assert np.isfinite(mask_min_length(logits, 0, 0, eos_id=0)).all()
    two = mask_min_length(np.zeros((2, 4)), 10, 750, eos_id=0)
    assert np.isneginf(two[:, 0]).all() and np.isfinite(two[:, 1:]).all()


def test_eos_length_decay_values():
    logits = np.zeros(4)
    assert np.array_equal(eos_length_decay(logits, 20, 20, 1.7, 0), logits)
    boosted = eos_length_decay(logits, 21, 20, 1.7, 0)
    assert boosted[0] == pytest.approx(math.log(1.7))
    prev = 0.0
    for length in range(21, 40):
        v = eos_length_decay(logits, length, 20, 1.7, 0)[0]
        assert v > prev
        prev = v


def test_top_k_filter_and_ties():
    out = top_k_filter(np.array([1.0, 3.0, 3.0, 0.0]), 2)
    assert np.isneginf(out[[0, 3]]).all()
    assert out[1] == 3.0 and out[2] == 3.0         # both ties fit in k
    out = top_k_filter(np.array([3.0, 3.0, 3.0]), 2)
    assert np.isneginf(out[2]) and np.isfinite(out[:2]).all()   # lower ids win ties
    two = top_k_filter(np.array([[1.0, 3.0, 3.0, 0.0], [3.0, 3.0, 3.0, 0.0]]), 2)
    assert np.array_equal(np.isfinite(two), [[False, True, True, False],
                                             [True, True, False, False]])


def test_top_k_ties_go_to_lower_ids_in_long_rows():
    # numpy's default argsort keeps tied entries in order only in short rows
    rows = np.random.default_rng(0).integers(0, 2, size=(4, 40)).astype(float)
    rows = np.vstack([rows, np.zeros(40)])
    for k in (1, 5, 12, 30):
        kept = np.isfinite(top_k_filter(rows, k))
        for row, row_kept in zip(rows, kept):
            expected = sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]
            assert np.flatnonzero(row_kept).tolist() == sorted(expected)


def test_top_k_and_ranking_equal_a_full_stable_argsort():
    """Property test on rows with heavy ties, signed zeros and -inf entries:
    both give exactly the order of one stable argsort over every entry."""
    rng = np.random.default_rng(21)
    for _ in range(10000):
        shape = (int(rng.integers(1, 6)), int(rng.integers(1, 40)))
        logits = rng.choice([-2.0, -0.5, -0.0, 0.0, 0.5, 3.0], size=shape)
        logits[rng.random(shape) < rng.random()] = -np.inf
        k = int(rng.integers(1, shape[1] + 2))
        if k >= shape[1]:
            want = logits
        else:
            keep = np.argsort(-logits, axis=-1, kind="stable")[:, :k]
            want = np.full(shape, -np.inf)
            np.put_along_axis(want, keep, np.take_along_axis(logits, keep, axis=-1), axis=-1)
        got = top_k_filter(logits, k)
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(top_k_filter(logits[0], k), got[0])
        flat = logits.ravel()
        order = np.argsort(-flat, kind="stable")[:np.count_nonzero(np.isfinite(flat))]
        assert np.array_equal(rank_candidates(flat), order)


def test_step_log_probs_are_normalized_and_non_positive():
    rng = np.random.default_rng(2)
    cfg = small_cfg()
    for _ in range(50):
        raw = rng.standard_normal(5) * 2
        ids = tuple(int(t) for t in rng.integers(1, 5, size=rng.integers(0, 4)))
        logp, _ = step_log_probs(raw, ids, cfg, eos_id=0)
        finite = logp[np.isfinite(logp)]
        assert (finite <= 1e-12).all()
        assert float(np.exp(finite).sum()) == pytest.approx(1.0)


def reference_log_softmax(x):
    """The log-softmax `step_log_probs` ran before it called `nn.log_softmax`:
    non-finite entries are masked, and a row with none left raises."""
    finite = np.isfinite(x)
    if not finite.any(axis=-1).all():
        raise ConfigurationError("no viable token after masking")
    m = np.where(finite, x, -np.inf).max(axis=-1, keepdims=True)
    z = np.log(np.exp(np.where(finite, x - m, -np.inf)).sum(axis=-1, keepdims=True))
    return np.where(finite, x - m - z, -np.inf)


def test_step_log_probs_bit_equal_to_reference_log_softmax():
    """With every processor the identity, `step_log_probs` is the reference
    log-softmax bit for bit (values and sign bits) on rows with -inf, NaN and
    +inf entries, and raises on a row with no finite entry."""
    rng = np.random.default_rng(16)
    rows = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        while rows < 12_000:
            beams, vocab = int(rng.integers(1, 9)), int(rng.integers(1, 40))
            cfg = small_cfg(temperature=1.0, repetition_penalty=1.0, min_length=0,
                            top_k=vocab, length_decay_start=0)
            raw = rng.standard_normal((beams, vocab)) * rng.choice([1e-3, 1.0, 30.0, 1e3])
            kind = rng.random((beams, vocab))
            raw[kind < 0.3] = -np.inf
            raw[(0.3 <= kind) & (kind < 0.35)] = np.nan
            raw[(0.35 <= kind) & (kind < 0.4)] = np.inf
            raw[np.arange(beams), rng.integers(0, vocab, size=beams)] = rng.standard_normal(beams)
            ids = np.zeros((beams, 0), dtype=np.intp)
            got, relaxed = step_log_probs(raw, ids, cfg, eos_id=0)
            want = reference_log_softmax(raw)
            assert relaxed == 0
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), raw
            rows += beams
            raw[rng.integers(0, beams)] = rng.choice([-np.inf, np.nan, np.inf], size=vocab)
            with pytest.raises(ConfigurationError, match="no viable token after masking"):
                step_log_probs(raw, ids, cfg, eos_id=0)


def needs_relaxation(ids, cfg, vocab, eos_id):
    """Brute force: the n-gram block and the min-length mask cover every token."""
    n = cfg.no_repeat_ngram
    blocked = {ids[i + n - 1] for i in range(len(ids) - n + 1)
               if ids[i: i + n - 1] == ids[len(ids) - n + 1:]}
    if len(ids) < cfg.min_length:
        blocked.add(eos_id)
    return len(blocked) == vocab


def test_batched_step_matches_oracle_row_by_row():
    rng = np.random.default_rng(9)
    vocab = 4
    # row 0 has followed its last token (1) with every other token, row 1 has not
    batches = [np.array([[1, 1, 2, 1, 3, 1], [1, 2, 3, 1, 2, 3]])]
    batches += [rng.integers(1, vocab, size=(6, length)) for length in (0, 1, 3, 5, 8, 12)]
    mixed = 0
    for cfg in (small_cfg(no_repeat_ngram=2, min_length=50, top_k=3),
                small_cfg(no_repeat_ngram=3, min_length=50, top_k=2),
                small_cfg(no_repeat_ngram=2, min_length=2, length_decay_start=1)):
        for ids in batches:
            raw = rng.standard_normal((len(ids), vocab)) * 2
            logp, relaxed = step_log_probs(raw, ids, cfg, eos_id=0)
            assert logp.shape == raw.shape
            want_relaxed = 0
            for row, hist, got in zip(raw, ids.tolist(), logp):
                want = np.array(oracle_step_logprobs(row, hist, cfg, 0))
                assert np.array_equal(np.isneginf(got), np.isneginf(want))
                finite = np.isfinite(want)
                np.testing.assert_allclose(got[finite], want[finite], rtol=0, atol=1e-12)
                want_relaxed += needs_relaxation(hist, cfg, vocab, 0)
            assert relaxed == want_relaxed and type(relaxed) is int
            mixed += 0 < relaxed < len(ids)
    assert mixed >= 2


# ---------------------------------------------------------------------------
# beam search


def test_greedy_equivalence_to_argmax_rollout():
    rng = np.random.default_rng(3)
    cfg = small_cfg(beam_size=1, top_k=1, max_length=6, min_length=1)
    for _ in range(25):
        model = RandomTableLM(5, 6, rng)
        record = generate(None, model, cfg)
        want_ids, want_score = greedy_rollout(model, cfg, 6)
        assert record.token_ids == want_ids
        assert record.cumulative_log_prob == pytest.approx(want_score, abs=1e-9)


def test_beam_matches_exhaustive_oracle_small_sample():
    rng = np.random.default_rng(4)
    cfg = small_cfg()
    for _ in range(10):
        model = RandomTableLM(3, 4, rng)
        record = generate(None, model, cfg)
        ids, score = exhaustive_best(model, cfg, 4)
        assert record.token_ids == ids
        assert record.cumulative_log_prob == pytest.approx(score, abs=1e-9)


def test_generation_is_deterministic():
    rng = np.random.default_rng(5)
    model = RandomTableLM(5, 8, rng)
    cfg = small_cfg(max_length=8, min_length=3)
    a = generate(None, model, cfg)
    b = generate(None, model, cfg)
    assert a.story_text == b.story_text
    assert a.token_ids == b.token_ids


def test_story_text_detokenizes_from_winner(tiny_lm):
    model = StyledLanguageModel(tiny_lm, None, "plain")
    cfg = small_cfg(min_length=2, max_length=6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        record = generate(None, model, cfg)
    assert record.story_text == model.decode(list(record.token_ids))
    assert record.token_count == len(record.token_ids) - (1 if record.finished else 0)
    assert record.style == "plain"


def test_no_finished_sequence_below_min_length():
    rng = np.random.default_rng(6)
    cfg = small_cfg(min_length=3, max_length=8, length_decay_start=3,
                    length_decay_factor=3.0)
    for _ in range(30):
        model = RandomTableLM(4, 8, rng)
        record = generate(None, model, cfg)
        if record.finished:
            assert record.token_count >= 3
            assert record.token_ids[-1] == model.eos_id   # finished ends in eos


def test_ngram_saturation_lifts_block_with_warning():
    class OneWordLM(StatelessLM):
        eos_id = 0
        def next_token_logits(self, prefix, ids):
            return np.array([0.0, 1.0])
        def decode(self, ids):
            return " ".join(map(str, ids))

    cfg = small_cfg(beam_size=1, no_repeat_ngram=2, min_length=10, max_length=5,
                    top_k=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # short-max_length warning is intended here
        with pytest.warns(RuntimeWarning, match="n-gram block lifted"):
            record = generate(None, OneWordLM(), cfg)
    assert record.token_ids == (1, 1, 1, 1, 1)     # forced repeats, never eos
    assert any("lifted" in w for w in record.warnings)


def test_max_length_below_min_length_warns_and_returns_unfinished():
    rng = np.random.default_rng(7)
    model = RandomTableLM(4, 5, rng)
    cfg = small_cfg(min_length=100, max_length=4)
    with pytest.warns(RuntimeWarning, match="max_length"):
        record = generate(None, model, cfg)
    assert not record.finished
    assert record.token_count == 4


def test_prefix_dimension_mismatch(tiny_lm):
    model = StyledLanguageModel(tiny_lm, None, "plain")
    for prefix, message in [(np.zeros((3, 9)), r"prefix shape \(3, 9\)"),
                            (np.zeros((0, 8)), r"prefix shape \(0, 8\)"),
                            (np.array([1.0, 2.0]), r"prefix shape \(2,\)"),
                            (np.array([[np.inf] + [0.0] * 7]), "non-finite")]:
        with pytest.raises(ConfigurationError, match=message):
            generate(prefix, model, small_cfg())


def test_context_limit_clips_max_length(tiny_lm):
    model = StyledLanguageModel(tiny_lm, None, "plain")
    cfg = small_cfg(min_length=1, max_length=10 * tiny_lm.config.max_seq_len)
    with pytest.warns(RuntimeWarning, match="clipped"):
        record = generate(None, model, cfg)
    assert len(record.token_ids) <= tiny_lm.config.max_seq_len


def test_record_json_line_schema_and_null_wall_time():
    import json
    rng = np.random.default_rng(8)
    model = RandomTableLM(4, 5, rng)
    record = generate(None, model, small_cfg(min_length=1, max_length=5))
    line = json.loads(record.to_json_line())
    assert set(line) == {"image_ref", "style", "story", "token_count", "config",
                         "seed", "model_manifest", "wall_time_s"}
    assert line["wall_time_s"] is None             # volatile, kept out of the bytes
    assert record.wall_time_s > 0
