"""The decoding oracle: a committed 32-dim checkpoint and the state it
predicts for every validation turn.

``tests/data/oracle_model.npz`` is ``fit`` on ``SynthConfig()`` under
``tests/data/oracle.cfg`` (32 dims, learning rate 0.01, 30 epochs at
patience 30; about 80 s on 2 vCPUs). ``tests/data/oracle_states.jsonl``
holds, for each validation turn in corpus order, the state
``predict_instances`` gives it and the smallest gate and token margin of
its decode. A gate's margin is the distance between its two most probable
gates; a token's is the distance between the two largest columns of the
step's mixture (``copy_mixture``), whose argmax is the token. The test
loads the checkpoint, predicts the validation dialogues again and requires
every state to equal the file and every margin to exceed MIN_MARGIN, so
rounding alone (about 1e-16 between hosts and BLAS thread counts at 32
dims) cannot flip a choice. A change that moves decoding on purpose
retrains and rewrites both files in the same commit:

    PYTHONPATH=src python tests/test_decode_oracle.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from lmdst import autodiff as ad
from lmdst import model as model_module
from lmdst.corpus import SynthConfig, generate_synthetic, save_dialogues
from lmdst.evaluation import write_jsonl
from lmdst.model import DstModel, copy_mixture
from lmdst.training import fit, load_config_file, predict_instances, split_corpus

DATA = Path(__file__).parent / "data"
CONFIG = DATA / "oracle.cfg"
CHECKPOINT = DATA / "oracle_model.npz"
STATES = DATA / "oracle_states.jsonl"
# sha256 of SynthConfig()'s corpus as save_dialogues writes it
CORPUS_SHA256 = "52d0a7d86a295ca861412715557b21c1a7bab7b976d18921390a2b57ae66967d"
MIN_MARGIN = 1e-9


def corpus_sha256(dialogues, tmp_dir: Path) -> str:
    path = tmp_dir / "corpus.json"
    save_dialogues(path, dialogues)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def predict_with_margins(model: DstModel, dialogues) -> list[dict]:
    """One record per turn of ``predict_instances(model, dialogues)``: its
    predicted state and the smallest gate and token margin of its decode
    (None where no slot decodes a token)."""
    n_s = len(model.ontology)
    gate, token = {}, {}
    seen = {}  # the current batch's turn keys and the current step's decoder rows
    predict_states, greedy = DstModel.predict_states, DstModel._greedy_decode
    output_logits, argmax = DstModel._output_logits, model_module.copy_argmax

    def spy_predict_states(self, instances, table=None):
        seen["keys"] = [(d.id, i) for d, i in instances]
        return predict_states(self, instances, table)

    def spy_greedy(self, batch):
        probs, words = greedy(self, batch)
        top = np.sort(probs, axis=2)
        for key, m in zip(seen["keys"], (top[..., -1] - top[..., -2]).min(axis=1)):
            gate[key] = float(m)
        return probs, words

    def spy_output_logits(self, batch, step):
        seen["rows"] = step.rows
        return output_logits(self, batch, step)

    def spy_argmax(vocab_logits, context_probs, p_gen, ids, *rest):
        choice = argmax(vocab_logits, context_probs, p_gen, ids, *rest)
        n_v = len(model.vocab)
        mixed = copy_mixture(ad.softmax(vocab_logits), ad.Node(context_probs), ad.Node(p_gen),
                             ids, n_v, max(0, int(ids.max()) + 1 - n_v)).value
        assert (mixed.argmax(axis=1) == choice).all()
        top = np.sort(mixed, axis=1)
        for r, m in zip(seen["rows"] // n_s, top[:, -1] - top[:, -2]):
            key = seen["keys"][r]
            token[key] = min(token.get(key, np.inf), float(m))
        return choice

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DstModel, "predict_states", spy_predict_states)
        mp.setattr(DstModel, "_greedy_decode", spy_greedy)
        mp.setattr(DstModel, "_output_logits", spy_output_logits)
        mp.setattr(model_module, "copy_argmax", spy_argmax)
        preds = predict_instances(model, dialogues)
    return [{"dialogue_id": p.dialogue_id, "turn_index": p.turn_index,
             "predicted": p.predicted.to_json(),
             "gate_margin": gate[p.dialogue_id, p.turn_index],
             "token_margin": token.get((p.dialogue_id, p.turn_index))} for p in preds]


def validation_dialogues():
    dialogues, ontology = generate_synthetic(SynthConfig())
    _, val = split_corpus(dialogues, load_config_file(CONFIG).val_fraction)
    return dialogues, ontology, val


def test_decoding_matches_the_oracle(tmp_path):
    dialogues, _, val = validation_dialogues()
    assert corpus_sha256(dialogues, tmp_path) == CORPUS_SHA256
    want = [json.loads(line) for line in STATES.read_text(encoding="utf-8").splitlines()]
    got = predict_with_margins(DstModel.load(CHECKPOINT), val)
    assert [(g["dialogue_id"], g["turn_index"]) for g in got] == \
        [(w["dialogue_id"], w["turn_index"]) for w in want]
    for g, w in zip(got, want):
        assert g["predicted"] == w["predicted"], (
            f"dialogue {g['dialogue_id']} turn {g['turn_index']}: recorded margins "
            f"gate {w['gate_margin']}, token {w['token_margin']}")
    assert min(g["gate_margin"] for g in got) > MIN_MARGIN
    assert min(g["token_margin"] for g in got if g["token_margin"] is not None) > MIN_MARGIN
    # the file pins real copy and generation choices, not a degenerate decode
    values = [v for w in want for v in w["predicted"].values()]
    assert len(values) > 300 and len(set(values)) > 100


if __name__ == "__main__":
    import tempfile

    dialogues, ontology, val = validation_dialogues()
    with tempfile.TemporaryDirectory() as tmp:
        print(f"corpus sha256 {corpus_sha256(dialogues, Path(tmp))}")
    model, report = fit(dialogues, ontology, load_config_file(CONFIG),
                        checkpoint_path=CHECKPOINT, progress=True)
    print(f"best epoch {report.best_epoch}, validation joint {report.best_val_joint}")
    write_jsonl(STATES, predict_with_margins(DstModel.load(CHECKPOINT), val))
