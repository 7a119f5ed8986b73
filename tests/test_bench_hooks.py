"""The benchmark reaches into lmdst by name: its traced mode wraps layers,
and its checkpoint check reads each parameter's ``name`` and ``value``. A
renamed or removed hook would otherwise only show up when the benchmark runs."""

from pathlib import Path

from lmdst.context import Vocabulary
from lmdst.corpus import Ontology
from lmdst.model import DstModel

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


def test_bench_checkpoint_round_trip(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    model = DstModel(Vocabulary(["hotel", "east"]), Ontology([("hotel", "area")]),
                     hidden_dim=4, embedding_dim=4, seed=3)
    path = str(tmp_path / "model.npz")
    loaded = workloads._load_checked(path, workloads._save(model, path))
    assert loaded.store.names() == model.store.names()
