"""The training oracle: a committed 40-micro-step trace of two 32-dim arms.

``tests/data/train_oracle.json`` holds, for each micro-step, the mean dst
and lm values ``Trainer.train_step`` returns and the global gradient norm
right after its backward pass (the running sum of the update window), each
as ``float.hex``. The run is ``fit``'s first epoch on ``SynthConfig()``:
its train/validation split, its vocabulary and its epoch-1 batch order,
for 10 Adam updates at delay 4. A trace this short barely depends on the
BLAS thread count (about 1e-16 relative at 32 dims), so the 1e-9 gate sees
no rounding but any change of behaviour. A change that moves training on
purpose rewrites the file in the same commit:

    PYTHONPATH=src python tests/test_train_oracle.py
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from lmdst import autodiff as ad
from lmdst.context import build_context, build_vocabulary
from lmdst.corpus import SynthConfig, generate_synthetic
from lmdst.model import DstModel
from lmdst.training import (TrainConfig, Trainer, _length_sorted_batches, split_corpus,
                            turn_instances)

ORACLE = Path(__file__).parent / "data" / "train_oracle.json"
MICRO_STEPS = 40
ARMS = {"full": {}, "trade": {"lm_enabled": False, "tagging_enabled": False}}


def trace(dialogues, ontology, **arm) -> list[dict[str, str]]:
    """Run the first MICRO_STEPS of ``fit``'s epoch 1 through ``train_step``."""
    cfg = TrainConfig(hidden_dim=32, embedding_dim=32, learning_rate=0.01, **arm)
    train_dlgs, _ = split_corpus(dialogues, cfg.val_fraction)
    model = DstModel.from_config(build_vocabulary(train_dlgs, cfg.min_count), ontology, cfg)
    trainer = Trainer(model, cfg)
    instances = turn_instances(train_dlgs)
    lengths = [build_context(d, i, model.tagging).length for d, i in instances]
    batches = _length_sorted_batches(instances, lengths, cfg.batch_size,
                                     np.random.default_rng(cfg.seed + 1))
    norms = []
    backward = ad.backward

    def recording(loss):
        backward(loss)
        norms.append(math.sqrt(sum(float(np.vdot(p.grad, p.grad))
                                   for p in model.store.parameters() if p.grad is not None)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ad, "backward", recording)
        losses = [trainer.train_step(batch) for batch in batches[:MICRO_STEPS]]
    assert len(losses) == len(norms) == MICRO_STEPS and trainer.optimizer.t == 10
    return [{"dst": dst.hex(), "lm": lm.hex(), "grad_norm": norm.hex()}
            for (dst, lm), norm in zip(losses, norms)]


def test_training_trace_matches_the_oracle():
    want = json.loads(ORACLE.read_text(encoding="utf-8"))
    assert want.keys() == ARMS.keys()
    dialogues, ontology = generate_synthetic(SynthConfig())
    for name, arm in ARMS.items():
        got = trace(dialogues, ontology, **arm)
        assert len(got) == len(want[name]) == MICRO_STEPS
        for k, (g, w) in enumerate(zip(got, want[name])):
            for key in ("dst", "lm", "grad_norm"):
                np.testing.assert_allclose(float.fromhex(g[key]), float.fromhex(w[key]),
                                           rtol=1e-9, atol=0,
                                           err_msg=f"{name} micro-step {k} {key}")
    assert all(float.fromhex(s["lm"]) == 0.0 for s in want["trade"])
    assert all(float.fromhex(s["lm"]) > 0.0 for s in want["full"])


if __name__ == "__main__":
    corpus = generate_synthetic(SynthConfig())
    oracle = {name: trace(*corpus, **arm) for name, arm in ARMS.items()}
    ORACLE.write_text(json.dumps(oracle, indent=1) + "\n", encoding="utf-8")
