import inspect

import numpy as np
import pytest

from lmdst import autodiff as ad
from lmdst.corpus import SynthConfig, generate_synthetic
from lmdst.model import DstModel
from lmdst.context import build_context, build_vocabulary
from lmdst.training import (Adam, TrainConfig, Trainer, ablation_name, fit,
                            load_config_file, predict_instances, save_config_file,
                            split_corpus, sweep, total_loss, turn_instances)


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
    assert got.embedding.freeze_word is want.embedding.freeze_word is True
    assert got.store.names() == want.store.names()
    for name in want.store.names():
        assert np.array_equal(got.store[name].value, want.store[name].value), name


# ---------------------------------------------------------------------------
# total loss
# ---------------------------------------------------------------------------

def test_total_loss_alpha_zero_is_dst():
    dst, lm = ad.Node(2.5), ad.Node(7.0)
    assert float(total_loss(dst, lm, 0.0).value) == 2.5


def test_total_loss_arithmetic():
    assert float(total_loss(ad.Node(2.0), ad.Node(1.0), 0.9).value) == pytest.approx(2.9)


def test_total_loss_default_alpha_is_09():
    assert TrainConfig().alpha == 0.9
    assert TrainConfig().delay_update_steps == 4
    assert TrainConfig().batch_size == 8
    assert TrainConfig().hidden_dim == 400
    assert TrainConfig().embedding_dim == 400


def test_total_loss_negative_alpha_errors():
    with pytest.raises(ValueError):
        total_loss(ad.Node(1.0), ad.Node(1.0), -0.1)


def test_total_loss_monotone_in_alpha():
    dst, lm = ad.Node(1.5), ad.Node(0.75)
    values = [float(total_loss(dst, lm, a).value) for a in (0.0, 0.3, 0.9, 2.0)]
    assert values == sorted(values)


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
        loss, _, _ = trainer.micro_batch_loss(batch, train=False)
        ad.backward(loss)
        for p in trainer.model.store.parameters():
            separate.setdefault(p.name, np.zeros_like(p.value))
            separate[p.name] += p.grad

    # accumulated via train_step (first 3 steps must not touch parameters)
    trainer.model.store.zero_grad()
    trainer.micro_step = 0
    snapshot = trainer.model.store.state_dict()
    for i, batch in enumerate(batches[:3]):
        loss, _, _ = trainer.micro_batch_loss(batch, train=False)
        ad.backward(loss)
        trainer.micro_step += 1
        for name, value in snapshot.items():
            assert (trainer.model.store[name].value == value).all(), \
                f"parameters changed inside accumulation window at micro-step {i}"
    loss, _, _ = trainer.micro_batch_loss(batches[3], train=False)
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
    dialogues = dialogues[:12]
    model = trainer.model
    model.b_gate.value = np.array([5.0, 0.0, 0.0])  # every slot ptr: words are read
    chunks = []
    predict_states = model.predict_states

    def recording(instances):
        chunks.append([build_context(d, i, model.tagging).length for d, i in instances])
        return predict_states(instances)

    model.predict_states = recording
    preds = predict_instances(model, dialogues, chunk=4)
    del model.predict_states

    instances = turn_instances(dialogues)
    assert [(p.dialogue_id, p.turn_index) for p in preds] == [(d.id, i) for d, i in instances]
    assert len(chunks) == -(-len(instances) // 4) > 2
    for shorter, longer in zip(chunks, chunks[1:]):
        assert max(shorter) <= min(longer)
    assert any(p.predicted.entries() for p in preds)
    for p, (d, i) in zip(preds, instances):
        assert p.predicted == model.predict_state(d, i)
        assert p.context_length == build_context(d, i, tagging=False).length


def test_fit_epochs_contiguous_from_one():
    dialogues, ontology = small_corpus()
    _, report = fit(dialogues, ontology, small_config(max_epochs=3, patience=10))
    assert [e.epoch for e in report.epochs] == list(range(1, len(report.epochs) + 1))


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
    path.write_text("# comment\nalpha = 0.25\nlm_enabled = false\nbatch_size = 2\n")
    cfg = load_config_file(path)
    assert cfg.alpha == 0.25 and cfg.lm_enabled is False and cfg.batch_size == 2
    assert cfg.delay_update_steps == 4  # untouched default


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("warp_speed = 9\n")
    with pytest.raises(ValueError) as exc:
        load_config_file(path)
    assert "warp_speed" in str(exc.value)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(alpha=-1).validate()
    with pytest.raises(ValueError):
        TrainConfig(delay_update_steps=0).validate()
    with pytest.raises(ValueError):
        TrainConfig(dropout=1.0).validate()
    with pytest.raises(ValueError, match="max_value_len"):
        TrainConfig(max_value_len=0).validate()
    for lr in (0.0, -1.0):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=lr).validate()
