"""The benchmark's traced mode wraps lmdst layers by name; a renamed or
removed layer would only show up as an empty per-layer metric there."""

from pathlib import Path

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
