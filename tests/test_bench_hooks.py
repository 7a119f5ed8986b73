"""The benchmark reaches into lmdst by name: its traced mode wraps layers,
and its checkpoint check reads each parameter's ``name`` and ``value``. A
renamed or removed hook would otherwise only show up when the benchmark runs."""

import json
from pathlib import Path

from lmdst import autodiff as ad
from lmdst.context import Vocabulary, build_context
from lmdst.corpus import BeliefState, Dialogue, DialogueTurn, Ontology
from lmdst.model import DstModel
from lmdst.training import TrainConfig

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_finds_every_layer_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_bench_tracer_reads_its_attributes(monkeypatch):
    """The traced mode also reads attributes off what the hooks return or
    take (a batch's contexts and their tokens, a recurrence's lengths, a
    decoder step's rows): one traced training step and one traced
    prediction fill every attribute the per-layer metrics read."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    model = DstModel(Vocabulary(["i", "want", "east", "area", ".", "hotel"]),
                     Ontology([("hotel", "area")]), hidden_dim=4, embedding_dim=4, seed=3)
    dialogue = Dialogue("toy0", {"hotel"}, [
        DialogueTurn(0, "", "i want east area .", BeliefState({("hotel", "area"): "east"}))])
    instances = [(dialogue, 0)]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("op", op=0):
            ad.backward(model.batch_loss(instances)[0])
            model.predict_states(instances)
    finally:
        tracer.uninstall()

    spans = tracer.spans
    assert all(rec[tracing.END] is not None for rec in spans)

    def attrs(name):
        found = [rec[tracing.ATTRS] for rec in spans if rec[tracing.NAME] == name]
        assert found, name
        return found

    length = build_context(dialogue, 0, model.tagging).length
    assert attrs("model.prepare_batch") == [{"turns": 1, "tokens": length}] * 2
    assert all(a["rows"] > 0 for a in attrs("gru_sequence_batch") + attrs("decoder.step"))
    metrics = tracing.layer_metrics(tracer, [0], 0.0)
    assert metrics["context.tokens_per_turn"] == (length, "tokens/turn")


def test_bench_checkpoint_round_trip(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    model = DstModel(Vocabulary(["hotel", "east"]), Ontology([("hotel", "area")]),
                     hidden_dim=4, embedding_dim=4, seed=3)
    path = str(tmp_path / "model.npz")
    loaded = workloads._load_checked(path, workloads._save(model, path))
    assert loaded.store.names() == model.store.names()


def test_bench_workloads_construct_their_configs(monkeypatch, tmp_path):
    """Constructing a workload builds its configs (no corpus, no model), so a
    config change the benchmark cannot run fails here first."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["workloads"]
    built = {w["name"]: workloads.make(w["name"], 1, str(tmp_path / "model.npz"))
             for w in declared}
    for name, dim in (("train-synth128", 128), ("train-synth400", 400)):
        assert built[name].config == TrainConfig(hidden_dim=dim, embedding_dim=dim,
                                                 learning_rate=0.003, seed=1)


def test_bench_workloads_build_and_run_one_op(monkeypatch, tmp_path):
    """Each declared workload builds its corpus and model, runs one op and
    checks it, finishes and summarises, as the benchmark's timed loop does,
    so a package change the benchmark cannot run fails here first."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    for w in json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["workloads"]:
        wl = workloads.make(w["name"], 1, str(tmp_path / "m.npz"))
        wl.build(None)
        prepared = wl.prepare(0)
        _, out = wl.op(prepared)
        assert wl.check(0, prepared, out) is None, w["name"]
        assert wl.finish() == {}, w["name"]
        assert wl.summary()["vocab_size"] > 0
