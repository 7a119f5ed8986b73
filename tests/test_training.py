import copy
import dataclasses
import inspect

import numpy as np
import pytest

from lmdst import autodiff as ad
from lmdst import training
from lmdst.corpus import SynthConfig, generate_synthetic
from lmdst.embeddings import CompositeEmbedding
from lmdst.model import DstModel
from lmdst.context import build_context, build_vocabulary
from lmdst.training import (Adam, TrainConfig, Trainer, ablation_name, fit,
                            load_config_file, predict_instances, save_config_file,
                            split_corpus, sweep, turn_instances)


def small_corpus(n=24, seed=3):
    return generate_synthetic(SynthConfig(
        n_dialogues=n, n_domains=2, n_slots_per_domain=2, vocab_size=24,
        max_turns=3, seed=seed))


def small_config(**kw):
    defaults = dict(hidden_dim=16, embedding_dim=16, max_epochs=2, batch_size=4,
                    delay_update_steps=2, seed=7, dropout=0.0, word_dropout=0.0)
    defaults.update(kw)
    return TrainConfig(**defaults)


def small_trainer(config=None):
    dialogues, ontology = small_corpus()
    cfg = config or small_config()
    vocab = build_vocabulary(dialogues, cfg.min_count)
    model = DstModel.from_config(vocab, ontology, cfg)
    return Trainer(model, cfg), dialogues, ontology


# ---------------------------------------------------------------------------
# config -> model
# ---------------------------------------------------------------------------

# TrainConfig field -> DstModel keyword, for every field from_config maps
# except the seed (13 in TrainConfig, 0 in DstModel, on purpose).
MODEL_FIELDS = {
    "hidden_dim": "hidden_dim", "embedding_dim": "embedding_dim",
    "tagging_enabled": "tagging", "lm_enabled": "lm_enabled",
    "dropout": "dropout", "word_dropout": "word_dropout",
    "max_value_len": "max_value_len", "freeze_embeddings": "freeze_word_embeddings",
}


def test_model_fields_share_defaults_with_train_config():
    # infer-style callers build DstModel from its own defaults, fit from
    # TrainConfig's; the two must describe the same model.
    params = inspect.signature(DstModel.__init__).parameters
    config = TrainConfig()
    for field_name, keyword in MODEL_FIELDS.items():
        assert getattr(config, field_name) == params[keyword].default, field_name


def test_from_config_equals_explicit_construction():
    dialogues, ontology = small_corpus()
    vocab = build_vocabulary(dialogues, 1)
    cfg = TrainConfig(hidden_dim=12, embedding_dim=12, tagging_enabled=False,
                      lm_enabled=False, dropout=0.3, word_dropout=0.05,
                      max_value_len=3, freeze_embeddings=True, seed=4)
    assert all(getattr(cfg, f) != getattr(TrainConfig(), f) for f in MODEL_FIELDS)
    got = DstModel.from_config(vocab, ontology, cfg)
    want = DstModel(vocab, ontology, hidden_dim=12, embedding_dim=12, tagging=False,
                    lm_enabled=False, dropout=0.3, word_dropout=0.05, max_value_len=3,
                    freeze_word_embeddings=True, seed=4)
    for attr in ("hidden_dim", "embedding_dim", "tagging", "lm_enabled", "dropout",
                 "word_dropout", "max_value_len"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert got.embedding.word.requires_grad is want.embedding.word.requires_grad is False
    assert got.store.names() == want.store.names()
    for name in want.store.names():
        assert np.array_equal(got.store[name].value, want.store[name].value), name


# ---------------------------------------------------------------------------
# the objective
# ---------------------------------------------------------------------------

def test_train_config_defaults_are_the_papers():
    assert TrainConfig().alpha == 0.9
    assert TrainConfig().delay_update_steps == 4
    assert TrainConfig().batch_size == 8
    assert TrainConfig().hidden_dim == 400
    assert TrainConfig().embedding_dim == 400


@pytest.mark.parametrize("alpha", [0.0, 0.9, 2.0])
def test_micro_batch_loss_is_the_batch_mean_of_dst_plus_alpha_lm(monkeypatch, alpha):
    """The loss node is (dst_sum + lm_sum * alpha) * (1 / B), bit for bit,
    over the two sums ``batch_loss`` returned."""
    trainer, dialogues, _ = small_trainer(small_config(alpha=alpha))
    sums = []
    batch_loss = trainer.model.batch_loss

    def keep_sums(batch, rng):
        sums.append(batch_loss(batch, rng))
        return sums[-1]

    monkeypatch.setattr(trainer.model, "batch_loss", keep_sums)
    batch = turn_instances(dialogues)[:4]
    loss, dst, lm = trainer.micro_batch_loss(batch)
    [(dst_sum, lm_sum)] = sums
    dst_sum, lm_sum = float(dst_sum.value), float(lm_sum.value)
    assert lm_sum > 0  # the LM is on, so alpha weighs a real term
    assert float(loss.value) == (dst_sum + lm_sum * alpha) * (1.0 / len(batch))
    assert (dst, lm) == (dst_sum / len(batch), lm_sum / len(batch))


# ---------------------------------------------------------------------------
# delayed updates
# ---------------------------------------------------------------------------

def test_accumulated_gradient_equals_sum_of_micro_batch_gradients():
    trainer, dialogues, _ = small_trainer(small_config(delay_update_steps=4))
    instances = turn_instances(dialogues)
    batches = [instances[i * 4:(i + 1) * 4] for i in range(4)]

    # independent per-batch gradients
    separate = {}
    for batch in batches:
        trainer.model.store.zero_grad()
        loss, _, _ = trainer.micro_batch_loss(batch)
        ad.backward(loss)
        for p in trainer.model.store.parameters():
            separate.setdefault(p.name, np.zeros_like(p.value))
            separate[p.name] += p.grad

    # accumulated via train_step (first 3 steps must not touch parameters)
    trainer.model.store.zero_grad()
    trainer.micro_step = 0
    snapshot = trainer.model.store.state_dict()
    for i, batch in enumerate(batches[:3]):
        loss, _, _ = trainer.micro_batch_loss(batch)
        ad.backward(loss)
        trainer.micro_step += 1
        for name, value in snapshot.items():
            assert (trainer.model.store[name].value == value).all(), \
                f"parameters changed inside accumulation window at micro-step {i}"
    loss, _, _ = trainer.micro_batch_loss(batches[3])
    ad.backward(loss)
    for p in trainer.model.store.parameters():
        np.testing.assert_allclose(p.grad, separate[p.name], rtol=0, atol=1e-10)


def test_train_step_updates_only_every_delay_steps():
    trainer, dialogues, _ = small_trainer(small_config(delay_update_steps=3))
    instances = turn_instances(dialogues)
    snapshot = trainer.model.store.state_dict()
    trainer.train_step(instances[:4])
    trainer.train_step(instances[4:8])
    for name, value in snapshot.items():
        assert (trainer.model.store[name].value == value).all()
    trainer.train_step(instances[8:12])
    changed = any((trainer.model.store[name].value != value).any()
                  for name, value in snapshot.items())
    assert changed


def test_delay_one_is_plain_updates():
    trainer, dialogues, _ = small_trainer(small_config(delay_update_steps=1))
    snapshot = trainer.model.store.state_dict()
    trainer.train_step(turn_instances(dialogues)[:4])
    assert any((trainer.model.store[name].value != value).any()
               for name, value in snapshot.items())


def dropout_config(**kw):
    return small_config(dropout=TrainConfig.dropout, word_dropout=TrainConfig.word_dropout, **kw)


def test_micro_step_masks_depend_only_on_the_seed_and_the_micro_step():
    """Micro-step 3 after three micro-steps that update nothing gives the
    loss and gradients, bit for bit, of a fresh trainer set to micro-step 3:
    no earlier micro-step's draws move its dropout masks."""
    cfg = dropout_config(delay_update_steps=4)
    trainer, dialogues, _ = small_trainer(cfg)
    instances = turn_instances(dialogues)
    batches = [instances[i * 4:(i + 1) * 4] for i in range(4)]
    for batch in batches[:3]:
        trainer.train_step(batch)
    assert trainer.optimizer.t == 0

    def step_three(t):
        t.model.store.zero_grad()
        loss, _, _ = t.micro_batch_loss(batches[3])
        ad.backward(loss)
        return loss.value, {p.name: p.grad for p in t.model.store.parameters()}

    fresh, _, _ = small_trainer(cfg)
    fresh.micro_step = 3
    (loss, grads), (fresh_loss, fresh_grads) = step_three(trainer), step_three(fresh)
    assert loss.tobytes() == fresh_loss.tobytes()
    assert grads.keys() == fresh_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_array_equal(grad, fresh_grads[name], err_msg=name)


def test_dropout_stream_is_neither_the_init_nor_the_batch_order_stream(monkeypatch):
    """The generator each micro-step hands ``batch_loss`` starts from other
    draws than the parameter-init stream (seed) and the batch-order stream
    (seed + 1), and differs between micro-steps."""
    cfg = dropout_config()
    trainer, dialogues, _ = small_trainer(cfg)
    received = []
    batch_loss = trainer.model.batch_loss

    def keep_copy(batch, rng):
        received.append(copy.deepcopy(rng))
        return batch_loss(batch, rng)

    monkeypatch.setattr(trainer.model, "batch_loss", keep_copy)
    instances = turn_instances(dialogues)
    trainer.train_step(instances[:4])
    trainer.train_step(instances[4:8])
    first = [rng.random(16) for rng in received]
    assert len(first) == 2
    for draws in first:
        for seed in (cfg.seed, cfg.seed + 1):
            assert not np.array_equal(draws, np.random.default_rng(seed).random(16))
    assert not np.array_equal(first[0], first[1])


def test_nan_loss_aborts_with_op_name():
    trainer, dialogues, _ = small_trainer()
    trainer.model.store["dec.w_pgen"].value[:] = np.nan
    with pytest.raises(ad.GraphError) as exc:
        trainer.train_step(turn_instances(dialogues)[:2])
    assert "op" in str(exc.value)


def test_inf_parameter_aborts_naming_the_op():
    """The backward pass is the trainer's one non-finite check: it names the
    first non-finite op, here the parameter leaf, before any gradient lands."""
    trainer, dialogues, _ = small_trainer()
    trainer.model.store["lm.w_f"].value[:] = np.inf
    with np.errstate(invalid="ignore", over="ignore"), \
            pytest.raises(ad.GraphError) as exc:
        trainer.train_step(turn_instances(dialogues)[:2])
    assert "non-finite loss" in str(exc.value)
    assert "param:lm.w_f" in str(exc.value)
    assert trainer.micro_step == 0
    assert all(p.grad is None for p in trainer.model.store.parameters())


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------

def test_adam_moves_against_gradient():
    store = ad.ParameterStore(0)
    p = store.new("w", (3,), 1.0)
    p.value = np.array([1.0, -2.0, 0.5])
    opt = Adam(store, lr=0.1)
    ad.backward(ad.sum_all(ad.elementwise_mul(p, p)))  # grad = 2w
    before = p.value.copy()
    opt.step()
    assert ((p.value - before) * np.sign(before) < 0).all()


def test_adam_deterministic():
    def run():
        store = ad.ParameterStore(4)
        p = store.new("w", (4,), 1.0)
        opt = Adam(store, lr=0.01)
        for _ in range(5):
            store.zero_grad()
            ad.backward(ad.sum_all(ad.elementwise_mul(p, p)))
            opt.step()
        return p.value.copy()

    assert (run() == run()).all()


# ---------------------------------------------------------------------------
# fit / sweep
# ---------------------------------------------------------------------------

def test_fit_same_seed_identical_loss_curves(tmp_path):
    dialogues, ontology = small_corpus()
    cfg = small_config(dropout=0.2, word_dropout=0.05)
    _, r1 = fit(dialogues, ontology, cfg)
    _, r2 = fit(dialogues, ontology, cfg)
    assert [vars(e) for e in r1.epochs] == [vars(e) for e in r2.epochs]


def test_fit_lm_disabled_reports_zero_lm_loss():
    dialogues, ontology = small_corpus()
    cfg = small_config(lm_enabled=False, max_epochs=1)
    _, report = fit(dialogues, ontology, cfg)
    assert all(e.train_lm == 0.0 for e in report.epochs)
    assert report.ablation == "-LM"


def test_fit_persists_best_checkpoint(tmp_path):
    dialogues, ontology = small_corpus()
    path = tmp_path / "best.npz"
    model, report = fit(dialogues, ontology, small_config(max_epochs=1), checkpoint_path=path)
    assert path.exists()
    assert report.checkpoint_path == str(path)
    from lmdst.model import DstModel as M
    loaded = M.load(path)
    d = dialogues[-1]
    assert loaded.predict_state(d, 0) == model.predict_state(d, 0)


def test_fit_checkpoint_reload_reproduces_val_accuracy(tmp_path):
    from lmdst.model import DstModel as M
    from lmdst.training import predict_instances
    from lmdst.evaluation import joint_accuracy

    dialogues, ontology = small_corpus()
    path = tmp_path / "best.npz"
    _, report = fit(dialogues, ontology, small_config(max_epochs=2), checkpoint_path=path)
    _, val = split_corpus(dialogues, small_config().val_fraction)
    loaded = M.load(path)
    assert joint_accuracy(predict_instances(loaded, val)) == report.best_val_joint


def test_predict_instances_chunks_by_length_in_turn_order():
    trainer, dialogues, _ = small_trainer()
    model = trainer.model
    model.b_gate.value = np.array([5.0, 0.0, 0.0])  # every slot ptr: words are read
    chunks = []
    predict_states = model.predict_states

    def recording(instances, table=None):
        chunks.append([build_context(d, i, model.tagging).length for d, i in instances])
        return predict_states(instances, table)

    model.predict_states = recording
    preds = predict_instances(model, dialogues)
    del model.predict_states

    instances = turn_instances(dialogues)
    assert [(p.dialogue_id, p.turn_index) for p in preds] == [(d.id, i) for d, i in instances]
    assert len(chunks) == -(-len(instances) // training.PREDICT_CHUNK) > 2
    for shorter, longer in zip(chunks, chunks[1:]):
        assert max(shorter) <= min(longer)
    assert any(p.predicted.entries() for p in preds)
    for p, (d, i) in zip(preds, instances):
        assert p.predicted == model.predict_state(d, i)
        assert p.context_length == build_context(d, i, tagging=False).length


def test_predict_instances_builds_one_table_per_call(monkeypatch):
    """Every chunk of a call reads one embedding table, and the predictions
    equal each chunk predicted on its own (which builds its own table)."""
    trainer, dialogues, _ = small_trainer()
    model = trainer.model
    model.b_gate.value = np.array([5.0, 0.0, 0.0])  # every slot ptr: words are read
    builds, chunks = [], []
    table, predict_states = CompositeEmbedding.table, model.predict_states

    def counting(self):
        builds.append(self)
        return table(self)

    def recording(instances, table=None):
        chunks.append(instances)
        return predict_states(instances, table)

    monkeypatch.setattr(CompositeEmbedding, "table", counting)
    model.predict_states = recording
    preds = predict_instances(model, dialogues)
    del model.predict_states
    assert builds == [model.embedding] and len(chunks) > 2

    by_turn = {(p.dialogue_id, p.turn_index): p.predicted for p in preds}
    for part in chunks:
        assert [by_turn[d.id, i] for d, i in part] == model.predict_states(part)
    assert len(builds) == 1 + len(chunks)


def test_fit_epochs_contiguous_from_one():
    dialogues, ontology = small_corpus()
    _, report = fit(dialogues, ontology, small_config(max_epochs=3, patience=10))
    assert [e.epoch for e in report.epochs] == list(range(1, len(report.epochs) + 1))


@pytest.mark.parametrize("scores, patience, stop, best", [
    ([50.0] + [100.0] * 5, 3, 2, (2, 100.0)),  # nothing beats 100.00: stop at once
    ([0.0] * 5, 2, 3, (1, 0.0)),  # epoch 1 is the best even when it reads 0.00
])
def test_fit_stops_and_restores_the_best_epoch(monkeypatch, tmp_path, scores, patience,
                                               stop, best):
    """With epoch n reading ``scores[n - 1]`` as its validation joint, the
    run stops after epoch ``stop`` and ends as the run that was only ever
    given the best epoch's count of epochs: same report, parameters and
    checkpoint arrays."""
    dialogues, ontology = small_corpus()
    runs = []
    for max_epochs in (len(scores), best[0]):
        it = iter(scores)
        monkeypatch.setattr(training, "joint_accuracy", lambda preds: next(it))
        path = tmp_path / f"max{max_epochs}.npz"
        model, report = fit(dialogues, ontology,
                            small_config(max_epochs=max_epochs, patience=patience),
                            checkpoint_path=path)
        runs.append((report, model.store.state_dict(), np.load(path)))
    (report, state, arrays), (short, short_state, short_arrays) = runs
    assert [e.epoch for e in report.epochs] == list(range(1, stop + 1))
    assert (report.best_epoch, report.best_val_joint) == best
    assert (short.best_epoch, short.best_val_joint) == best
    assert report.epochs[:best[0]] == short.epochs
    assert state.keys() == short_state.keys() and arrays.files == short_arrays.files
    for name in state:
        np.testing.assert_array_equal(state[name], short_state[name])
    for name in arrays.files:
        np.testing.assert_array_equal(arrays[name], short_arrays[name])


def test_fit_rejects_tiny_corpus():
    dialogues, ontology = small_corpus(n=1)
    with pytest.raises(ValueError):
        fit(dialogues, ontology, small_config())


def test_sweep_grid_shape():
    dialogues, ontology = small_corpus(n=12)
    cfg = small_config(max_epochs=1)
    rows = sweep([0.0, 0.9], [1], dialogues, ontology, cfg)
    assert len(rows) == 2
    assert {(r["alpha"], r["delay_update_steps"]) for r in rows} == {(0.0, 1), (0.9, 1)}
    single = sweep([0.5], [2], dialogues, ontology, cfg)
    assert len(single) == 1
    with pytest.raises(ValueError):
        sweep([], [1], dialogues, ontology, cfg)


def test_sweep_validates_every_cell_before_the_first_fit(monkeypatch):
    """An invalid later cell fails the sweep before any cell trains."""
    calls = []
    monkeypatch.setattr(training, "fit", lambda *a, **kw: calls.append(a))
    dialogues, ontology = small_corpus(n=12)
    with pytest.raises(ValueError, match="delay_update_steps"):
        sweep([0.9], [4, 0], dialogues, ontology, small_config())
    with pytest.raises(ValueError, match="alpha"):
        sweep([0.9, -1.0], [4], dialogues, ontology, small_config())
    assert calls == []


def test_sweep_six_cell_smoke():
    dialogues, ontology = small_corpus(n=16)
    cfg = small_config(max_epochs=1, batch_size=8)
    rows = sweep([0.0, 0.5, 0.9], [1, 4], dialogues, ontology, cfg)
    assert len(rows) == 6
    assert [(r["alpha"], r["delay_update_steps"]) for r in rows] == \
        [(a, d) for a in (0.0, 0.5, 0.9) for d in (1, 4)]
    assert all(0.0 <= r["val_joint_accuracy"] <= 100.0 for r in rows)


def test_ablation_names():
    assert ablation_name(TrainConfig()) == "full"
    assert ablation_name(TrainConfig(lm_enabled=False)) == "-LM"
    assert ablation_name(TrainConfig(tagging_enabled=False)) == "-Tagging"
    assert ablation_name(TrainConfig(lm_enabled=False, tagging_enabled=False)) == "-LM -Tagging"


def test_fit_with_pretrained_vectors(tmp_path):
    dialogues, ontology = small_corpus(n=12)
    cfg = small_config(max_epochs=1, freeze_embeddings=True)
    from lmdst.context import build_vocabulary
    from lmdst.embeddings import split_dims
    vocab = build_vocabulary(dialogues[:-2], cfg.min_count)
    word_dim, _ = split_dims(cfg.embedding_dim)
    token = vocab.content_tokens()[0]
    vec = tmp_path / "vectors.txt"
    values = [0.5] * word_dim
    vec.write_text(token + " " + " ".join(str(v) for v in values) + "\n")
    model, _ = fit(dialogues, ontology, cfg, vectors_path=vec)
    row = model.embedding.word.value[model.vocab.id(token)]
    assert (row == 0.5).all()  # loaded and untouched by training (frozen)


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_file_roundtrip(tmp_path):
    cfg = TrainConfig(alpha=0.5, delay_update_steps=2, tagging_enabled=False,
                      learning_rate=0.005, max_epochs=12)
    path = tmp_path / "train.cfg"
    save_config_file(path, cfg)
    assert load_config_file(path) == cfg


def test_config_file_parsing(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("# comment\nalpha = 0.25\nlm_enabled = false\nbatch_size = 2\n"
                    "learning_rate = 1\n")
    cfg = load_config_file(path)
    assert cfg.alpha == 0.25 and cfg.lm_enabled is False and cfg.batch_size == 2
    assert cfg.learning_rate == 1.0 and type(cfg.learning_rate) is float  # the field's type
    assert cfg.delay_update_steps == 4  # untouched default
    path.write_text("alpha = 0.5\nbatch_size = 1.5\n")
    with pytest.raises(ValueError, match="config line 2: batch_size: "):
        load_config_file(path)
    path.write_text("alpha = 0.5\nseed = 3\nalpha = 0.0\n")  # not a silent last win
    with pytest.raises(ValueError, match="^config line 3: key 'alpha' repeats line 1$"):
        load_config_file(path)


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ValueError) as exc:
        load_config_file(path)
    assert "warp_speed" in str(exc.value)


def test_config_validation():
    for alpha in (-1, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha=alpha)
    with pytest.raises(ValueError):
        TrainConfig(delay_update_steps=0)
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0)
    with pytest.raises(ValueError, match="max_value_len"):
        TrainConfig(max_value_len=0)
    for lr in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr)
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    with pytest.raises(ValueError, match="hidden_dim"):
        TrainConfig(hidden_dim=64)
    with pytest.raises(ValueError, match="min_count"):
        TrainConfig(min_count=0)
    with pytest.raises(ValueError, match="embedding_dim"):
        TrainConfig(hidden_dim=0, embedding_dim=0)


def test_configs_are_frozen():
    """Configs are checked only when built, so no field can change after."""
    for cfg, name in ((TrainConfig(), "alpha"), (SynthConfig(), "seed")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, 1)


def test_config_file_value_checked_on_load(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("dropout = 1\n")
    with pytest.raises(ValueError, match="dropout"):
        load_config_file(path)
