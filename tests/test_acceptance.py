"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to get one pass/fail line
per criterion (the -v test lines) plus the printed summaries.

Criterion 8's real-data statistics need user-supplied MultiWOZ 2.0 files
(see README): DST_MULTIWOZ_TEST (test split, per-turn format) and
optionally DST_MULTIWOZ_FULL (all splits concatenated).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from lmdst import autodiff as ad
from lmdst.cli import main as cli_main
from lmdst.context import build_context, build_vocabulary, context_length_stats
from lmdst.corpus import (BeliefState, Dialogue, DialogueTurn, Ontology, SynthConfig,
                          filter_domains, generate_synthetic, load_multiwoz,
                          mean_speaker_turns)
from lmdst.evaluation import (ERROR_CLASSES, joint_accuracy, length_report,
                              slot_accuracy, taxonomy_report)
from lmdst.model import MASKED_LOGIT, DstModel, copy_mixture
from lmdst.training import (TrainConfig, Trainer, fit, predict_instances, split_corpus,
                            turn_instances)

from conftest import build_table_fixture
from test_evaluation import ONTOLOGY as EVAL_ONTOLOGY
from test_evaluation import PAIRS as EVAL_PAIRS
from test_evaluation import oracle_classify, random_predictions
from test_lm import numpy_bigru_lm


def report(criterion, text):
    print(f"\n[PASS] criterion {criterion}: {text}")


# ---------------------------------------------------------------------------
# shared toy fixture: 2-turn dialogue, vocabulary of 12 (6 reserved + 6)
# ---------------------------------------------------------------------------

def toy_setup():
    turns = [
        DialogueTurn(0, "", "i want east area",
                     BeliefState({("hotel", "area"): "east"})),
        DialogueTurn(1, "want west area .", "i want west area .",
                     BeliefState({("hotel", "area"): "west"})),
    ]
    dialogue = Dialogue("toy", {"hotel"}, turns)
    vocab = build_vocabulary([dialogue])
    assert len(vocab) == 12
    ontology = Ontology([("hotel", "area")])
    model = DstModel(vocab, ontology, hidden_dim=8, embedding_dim=8,
                     dropout=0.0, word_dropout=0.0, seed=11)
    return dialogue, model


# ---------------------------------------------------------------------------
# the shared end-to-end synthetic training run (criteria 6 and 7)
# ---------------------------------------------------------------------------

ACCEPT_SYNTH = SynthConfig()  # 500 dialogues, 5 domains x 3 slots
# Scaled-down end-to-end run: the reference settings alpha=0.9, delay 4 and
# batch 8 are the TrainConfig defaults; dimensions and learning rate are
# desk-scale choices (full 400-dim float64 training does not fit a
# laptop-CPU budget; this check pins only the three named settings).
ACCEPT_TRAIN = TrainConfig(hidden_dim=128, embedding_dim=128,
                           learning_rate=0.003, patience=10, max_epochs=30)


@pytest.fixture(scope="module")
def synthetic_run():
    assert ACCEPT_TRAIN.alpha == 0.9
    assert ACCEPT_TRAIN.delay_update_steps == 4
    assert ACCEPT_TRAIN.batch_size == 8
    dialogues, ontology = generate_synthetic(ACCEPT_SYNTH)
    assert len(dialogues) == 500 and len(ontology) == 15
    start = time.monotonic()
    model, train_report = fit(dialogues, ontology, ACCEPT_TRAIN)
    elapsed = time.monotonic() - start
    return dialogues, ontology, model, train_report, elapsed


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    rng = np.random.default_rng(0)

    # every primitive op, small random instances
    worst_primitive = 0.0
    for seed in range(3):
        store = ad.ParameterStore(seed)
        a = store.new("a", (3, 4), 1.0)
        b = store.new("b", (4, 5), 1.0)
        c = store.new("c", (3, 5), 1.0)
        d = store.new("d", (3, 5), 1.0)
        emb = store.new("emb", (6, 4), 1.0)
        logits_row = store.new("logits_row", (1, 5), 1.0)
        gen = store.new("gen", (10, 1), 1.0)
        for p in store.parameters():
            p.value = rng.normal(size=p.value.shape)
        idx = rng.integers(0, 6, size=5)
        targets = rng.integers(0, 5, size=3)
        cols = rng.integers(0, 7, size=4)
        # 2 groups of 5 rows attend over their own sequence of the 9-row
        # stack, padded to 5 (lengths 5 and 4); the copy loss takes |V| = 4
        # vocabulary logits and extended ids 4..6
        lengths = [5, 4]
        keep = np.repeat(np.arange(5) < np.array(lengths)[:, None], 5, axis=0)
        copy_ids = np.where(keep, rng.integers(0, 7, size=(10, 5)), 0)
        copy_ids[:, 0] = 6  # an extended id in every context ...
        nll_targets = rng.integers(0, 4, size=10)
        nll_targets[::3] = 6  # ... that some rows can only copy

        def build():
            mm = ad.matmul(a, b)                       # matmul
            s = ad.add(mm, c)                               # add
            s = ad.elementwise_mul(s, ad.sigmoid(c))        # mul, sigmoid
            sm = ad.softmax(s)                           # softmax
            ce = ad.cross_entropy_rows(s, targets)               # batched cross entropy
            ce1 = ad.cross_entropy_rows(logits_row, [int(targets[0])])  # one row
            looked = ad.embedding_lookup(emb, idx)          # lookup
            cat = ad.concat(looked, ad.transpose(b), axis=0)
            sc = ad.scatter_cols(ad.softmax(cat), cols, 7)
            stack = ad.pad_sequences(ad.embedding_lookup(cat, np.arange(9)),
                                     lengths)                    # (2, 5, 4) padded
            scores = ad.bmm(cat, stack, [5, 5], transpose_b=True)  # (10, 5)
            masked = ad.add(scores, ad.Node(np.where(keep, 0.0, MASKED_LOGIT)))
            attn = ad.softmax(masked)
            context = ad.bmm(attn, stack, [5, 5])                # (10, 4)
            nll = ad.copy_nll_rows(cat, masked, gen, nll_targets, copy_ids)
            total = ad.add(ad.add(ce, ce1), ad.add(nll, ad.sum_all(sm)))
            total = ad.add(total, ad.sum_all(ad.elementwise_mul(context, context)))
            padded = ad.concat(sc, ad.Node(np.zeros((sc.shape[0], 2))), axis=1)
            return ad.add(total, ad.sum_all(ad.elementwise_mul(padded, padded)))

        worst_primitive = max(worst_primitive,
                              ad.grad_check(build, store.parameters(), eps=1e-5))
    assert worst_primitive < 1e-4

    # fused GRU sequence op, one sequence in each direction
    store = ad.ParameterStore(5)
    cell = ad.GruCell(store, "g", 3, 4)
    xs = store.new("xs", (6, 3), 1.0)
    xs.value = rng.normal(size=(6, 3))

    def gru_build():
        f = ad.gru_sequence_batch(cell, xs, [6])
        b = ad.gru_sequence_batch(cell, xs, [6], reverse=True)
        return ad.sum_all(ad.elementwise_mul(f, b))

    gru_err = ad.grad_check(gru_build, store.parameters(), eps=1e-5)
    assert gru_err < 1e-4

    # composite total-loss graph on the 2-turn toy dialogue (vocab 12, d_h 8)
    dialogue, model = toy_setup()

    def total_build():
        dst, lm = model.batch_loss([(dialogue, 0), (dialogue, 1)])
        return ad.add(dst, ad.elementwise_mul(lm, 0.9))

    composite_err = ad.grad_check(total_build, model.store.parameters(), eps=1e-5)
    elapsed = time.monotonic() - start
    assert composite_err < 1e-4
    assert elapsed < 30.0
    report(1, f"primitives {worst_primitive:.2e}, gru {gru_err:.2e}, "
              f"composite {composite_err:.2e} (< 1e-4) in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. LM loss oracle
# ---------------------------------------------------------------------------

def test_criterion_2_lm_loss_oracle():
    from lmdst.lm import LanguageModel

    store = ad.ParameterStore(7)
    lm = LanguageModel(store, 5, 12)
    rng = np.random.default_rng(7)
    emb = rng.normal(size=(5, 5))
    ids = rng.integers(0, 12, size=5)
    got = float(lm.loss(*lm.forward(ad.Node(emb), [5]), ids, [5]).value)
    _, _, want = numpy_bigru_lm(emb, ids.tolist(), lm)
    err = abs(got - want)
    assert err < 1e-9

    t1 = float(lm.loss(*lm.forward(ad.Node(rng.normal(size=(1, 5))), [1]), [3], [1]).value)
    assert t1 == 0.0

    store4 = ad.ParameterStore(9)
    lm4 = LanguageModel(store4, 4, 4)
    lm4.w_f.value = np.zeros_like(lm4.w_f.value)
    lm4.w_b.value = np.zeros_like(lm4.w_b.value)
    uniform = float(lm4.loss(*lm4.forward(ad.Node(rng.normal(size=(3, 4))), [3]),
                             [0, 1, 2], [3]).value)
    uniform_err = abs(uniform - 4 * math.log(4))
    assert uniform_err < 1e-12
    report(2, f"T=5 |V|=12 oracle err {err:.2e} (<1e-9); T=1 exact 0; "
              f"uniform T=3 err {uniform_err:.2e} (<1e-12)")


# ---------------------------------------------------------------------------
# 3. copy-mixture simplex
# ---------------------------------------------------------------------------

def test_criterion_3_copy_mixture_simplex():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(1000):
        s = int(rng.integers(1, 5))
        t = int(rng.integers(1, 8))
        v = int(rng.integers(2, 10))
        n_oov = int(rng.integers(0, 3))
        vocab_probs = ad.softmax(ad.Node(rng.normal(scale=3.0, size=(s, v))))
        attn = ad.softmax(ad.Node(rng.normal(scale=3.0, size=(s, t))))
        p_gen = ad.sigmoid(ad.Node(rng.normal(scale=3.0, size=(s, 1))))
        ids = rng.integers(0, v + n_oov, size=t)
        out = copy_mixture(vocab_probs, attn, p_gen, ids, v, n_oov).value
        assert (out >= 0).all()
        worst = max(worst, float(np.abs(out.sum(axis=1) - 1.0).max()))
    assert worst < 1e-10
    report(3, f"1000 parameterizations, worst |sum-1| = {worst:.2e} (< 1e-10)")


# ---------------------------------------------------------------------------
# 4. metric oracles
# ---------------------------------------------------------------------------

def _pct(fraction: float) -> float:
    from decimal import ROUND_HALF_UP, Decimal
    return float(Decimal(repr(fraction * 100)).quantize(Decimal("0.01"),
                                                        rounding=ROUND_HALF_UP))


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(44)
    preds = random_predictions(rng, 1000)

    want_joint = sum(1 for p in preds if p.predicted.entries() == p.gold.entries()) / len(preds)
    assert joint_accuracy(preds) == _pct(want_joint)

    slot_hits = sum(1 for p in preds for pair in EVAL_PAIRS
                    if p.predicted.entries().get(pair, "none") == p.gold.entries().get(pair, "none"))
    assert slot_accuracy(preds, EVAL_ONTOLOGY) == _pct(slot_hits / (len(preds) * len(EVAL_PAIRS)))

    counts = taxonomy_report(preds)
    oracle_counts = {c: 0 for c in ERROR_CLASSES}
    for p in preds:
        oracle_counts[oracle_classify(p.predicted, p.gold)] += 1
    assert counts == oracle_counts
    assert sum(counts.values()) == len(preds)

    lr = length_report(preds)
    for label, (lo, hi) in (("0-99", (0, 100)), ("100-199", (100, 200)),
                            ("200-299", (200, 300)), (">=300", (300, 10 ** 9))):
        rows = [p for p in preds if lo <= p.context_length < hi]
        assert lr[label]["total"] == len(rows)
        assert lr[label]["correct"] == sum(
            1 for p in rows if p.predicted.entries() == p.gold.entries())

    table = build_table_fixture()
    tr = length_report(table)
    assert [tr[b]["total"] for b in ("0-99", "100-199", "200-299", ">=300")] == \
        [2940, 2466, 1494, 468]
    assert tr["0-99"]["correct"] == 2115
    assert tr["0-99"]["joint_accuracy"] == 71.94
    tax = taxonomy_report(table)
    assert tax == {"correct": 3556, "over_prediction": 791,
                   "partial_prediction": 1480, "false_prediction": 1541}
    assert sum(tax.values()) == 7368
    report(4, "1000-fixture recounts exact; 71.94 = 2115/2940; "
              "taxonomy 3556/791/1480/1541 sums to 7368")


# ---------------------------------------------------------------------------
# 5. delayed-update equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_delayed_update_equivalence():
    dialogues, ontology = generate_synthetic(SynthConfig(
        n_dialogues=24, n_domains=2, n_slots_per_domain=2, vocab_size=24,
        max_turns=3, seed=5))
    cfg = TrainConfig(hidden_dim=16, embedding_dim=16, delay_update_steps=4,
                      batch_size=4, dropout=0.0, word_dropout=0.0, seed=3)
    vocab = build_vocabulary(dialogues)
    model = DstModel(vocab, ontology, hidden_dim=16, embedding_dim=16,
                     dropout=0.0, word_dropout=0.0, seed=3)
    trainer = Trainer(model, cfg)
    instances = turn_instances(dialogues)
    batches = [instances[i * 4:(i + 1) * 4] for i in range(4)]

    separate = {p.name: np.zeros_like(p.value) for p in model.store.parameters()}
    for batch in batches:
        model.store.zero_grad()
        loss, _, _ = trainer.micro_batch_loss(batch)
        ad.backward(loss)
        for p in model.store.parameters():
            separate[p.name] += p.grad

    model.store.zero_grad()
    snapshot = model.store.state_dict()
    trainer.micro_step = 0
    for k, batch in enumerate(batches):
        loss, _, _ = trainer.micro_batch_loss(batch)
        ad.backward(loss)
        trainer.micro_step += 1
        if k < 3:
            for name, value in snapshot.items():
                assert (model.store[name].value == value).all(), \
                    f"parameters changed inside the accumulation window ({name})"

    worst = 0.0
    for p in model.store.parameters():
        worst = max(worst, float(np.abs(p.grad - separate[p.name]).max()))
    assert worst < 1e-10
    report(5, f"k=4 accumulation vs summed gradients: max |diff| = {worst:.2e} "
              f"(< 1e-10); parameters bit-identical within the window")


# ---------------------------------------------------------------------------
# 6. end-to-end synthetic run
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end_synthetic(synthetic_run, capsys, tmp_path):
    dialogues, ontology, model, train_report, elapsed = synthetic_run
    reached = [e.epoch for e in train_report.epochs if e.val_joint >= 95.0]
    assert reached, f"never reached 95% (best {train_report.best_val_joint})"
    assert reached[0] <= 30
    assert elapsed < 900.0

    # ablations run end to end (short, scaled down) and emit metric tables
    synth_dir = tmp_path / "synth"
    assert cli_main(["synth", "--out", str(synth_dir), "--seed", "13"]) == 0
    cfg = tmp_path / "ablation.cfg"
    cfg.write_text("hidden_dim = 32\nembedding_dim = 32\nmax_epochs = 1\n"
                   "patience = 2\nlearning_rate = 0.003\n")
    for flag, label in (("--no-lm", "-LM"), ("--no-tagging", "-Tagging")):
        code = cli_main(["train", "--data", str(synth_dir / "corpus.json"),
                         "--ontology", str(synth_dir / "ontology.txt"),
                         "--checkpoint", str(tmp_path / f"{label}.npz"),
                         "--config", str(cfg), flag, "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "joint accuracy" in out and "slot accuracy" in out and label in out
    report(6, f"val joint {train_report.best_val_joint:.2f}% first >= 95% at epoch "
              f"{reached[0]} (<= 30), wall clock {elapsed:.0f}s (< 900s); "
              f"-LM and -Tagging ablations ran")


# ---------------------------------------------------------------------------
# 7. open-vocabulary copy property
# ---------------------------------------------------------------------------

def test_criterion_7_open_vocabulary_copy(synthetic_run):
    _, ontology, model, _, _ = synthetic_run
    # letters outside the synthetic value-word alphabet guarantee OOV
    oov_words = ["jexo", "wuqu", "coxa", "hyje", "quwo",
                 "xewa", "yoxu", "joqi", "wyca", "hexy"]
    slots = ontology.domain_slots
    hits = 0
    for k, word in enumerate(oov_words):
        assert word not in model.vocab
        domain, slot = slots[k % len(slots)]
        probe = Dialogue(f"probe{k}", {domain}, [
            DialogueTurn(0, "", f"i want {word} {slot} .",
                         BeliefState({(domain, slot): word}))])
        state = model.predict_state(probe, 0)
        hits += state.get(domain, slot) == word
    assert hits >= 9, f"only {hits}/10 OOV values copied"
    report(7, f"{hits}/10 unseen values decoded via the copy path (>= 9 required)")


def test_trained_model_batched_prediction_matches_single(synthetic_run):
    """Batch independence on a model that decodes real values: corpus
    prediction (length chunks of 16) equals one turn at a time, over enough
    distinct values that the check sees real decoding, not one token."""
    dialogues, _, model, _, _ = synthetic_run
    _, val = split_corpus(dialogues, ACCEPT_TRAIN.val_fraction)
    instances = turn_instances(val)
    preds = predict_instances(model, val)
    assert [(p.dialogue_id, p.turn_index) for p in preds] == [(d.id, i) for d, i in instances]
    for p, (d, i) in zip(preds, instances):
        assert p.predicted == model.predict_state(d, i), f"{d.id} turn {i}"
    values = {v for p in preds for v in p.predicted.entries().values()}
    assert len(values - {"dontcare"}) >= 20, sorted(values)


# ---------------------------------------------------------------------------
# 8. tagging round-trip and corpus statistics
# ---------------------------------------------------------------------------

def test_criterion_8_tag_roundtrip_everywhere():
    fixture = load_multiwoz(Path(__file__).parent / "data" / "fixture_dialogues.json")
    synth, _ = generate_synthetic(SynthConfig(n_dialogues=40, seed=2))
    for corpus in (fixture, synth):
        for d in corpus:
            for i in range(len(d.turns)):
                tagged = build_context(d, i, tagging=True)
                untagged = build_context(d, i, tagging=False)
                assert tagged.strip_tags().tokens == untagged.tokens
                assert tagged.untagged_length == untagged.length
    report(8, "tag-strip round-trip holds on the fixture and synthetic corpora")


def test_criterion_8_multiwoz_statistics():
    test_path = os.environ.get("DST_MULTIWOZ_TEST")
    if not test_path:
        pytest.skip("set DST_MULTIWOZ_TEST to a MultiWOZ 2.0 test-split file "
                    "(per-turn format) to run the real-data statistics check")
    dialogues = filter_domains(load_multiwoz(test_path))
    stats = context_length_stats(dialogues)
    assert stats["max_length"] == 880
    assert abs(stats["fraction_ge_200"] * 100 - 27.0) <= 2.0
    expected_buckets = {"0-99": 2940, "100-199": 2466, "200-299": 1494, ">=300": 468}
    assert stats["bucket_counts"] == expected_buckets
    assert stats["instances"] == 7368

    full_path = os.environ.get("DST_MULTIWOZ_FULL")
    if full_path:
        full = load_multiwoz(full_path)
        assert abs(mean_speaker_turns(full) - 13.68) <= 0.1
    report(8, "real-data statistics match (max 880, ~27% >= 200, bucket totals)")


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    def pipeline(root: Path) -> dict[str, bytes]:
        root.mkdir()
        synth_dir = root / "synth"
        assert cli_main(["synth", "--out", str(synth_dir), "--seed", "7",
                         "--dialogues", "60", "--domains", "2",
                         "--slots-per-domain", "2", "--vocab-size", "24",
                         "--max-turns", "3"]) == 0
        cfg = root / "train.cfg"
        cfg.write_text("hidden_dim = 16\nembedding_dim = 16\nmax_epochs = 2\n"
                       "batch_size = 4\npatience = 3\n")
        assert cli_main(["train", "--data", str(synth_dir / "corpus.json"),
                         "--ontology", str(synth_dir / "ontology.txt"),
                         "--checkpoint", str(root / "model.npz"),
                         "--config", str(cfg), "--seed", "7",
                         "--out", str(root / "report.json"), "--quiet"]) == 0
        assert cli_main(["predict", "--checkpoint", str(root / "model.npz"),
                         "--data", str(synth_dir / "corpus.json"),
                         "--out", str(root / "dump.jsonl")]) == 0
        assert cli_main(["analyze", "--data", str(root / "dump.jsonl"),
                         "--out", str(root / "analysis.jsonl")]) == 0
        train_report = json.loads((root / "report.json").read_text())
        del train_report["wall_clock_sec"]  # timing is the one non-deterministic field
        del train_report["checkpoint_path"]  # directory-specific
        return {
            "corpus": (synth_dir / "corpus.json").read_bytes(),
            "losses": json.dumps(train_report, sort_keys=True).encode(),
            "dump": (root / "dump.jsonl").read_bytes(),
            "analysis": (root / "analysis.jsonl").read_bytes(),
        }

    first = pipeline(tmp_path / "run1")
    second = pipeline(tmp_path / "run2")
    for key in first:
        assert first[key] == second[key], f"{key} differs between identical-seed runs"
    report(9, "synth + train + predict + analyze byte-identical across two runs "
              "(corpora, loss curves, dumps, reports)")
