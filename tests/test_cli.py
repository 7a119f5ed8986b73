import json
from pathlib import Path

import pytest

from conftest import build_table_fixture
from lmdst.cli import build_parser, main
from lmdst.evaluation import write_predictions

FIXTURE = Path(__file__).parent / "data" / "fixture_dialogues.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--seed", "7", "--dialogues", "30",
                 "--domains", "2", "--slots-per-domain", "2", "--vocab-size", "24",
                 "--max-turns", "3"]) == 0
    return out


@pytest.fixture(scope="module")
def trained(tmp_path_factory, synth_dir):
    out = tmp_path_factory.mktemp("train")
    ckpt = out / "model.npz"
    cfg = out / "train.cfg"
    cfg.write_text("hidden_dim = 16\nembedding_dim = 16\nmax_epochs = 2\n"
                   "batch_size = 4\ndelay_update_steps = 2\npatience = 3\n")
    code = main(["train", "--data", str(synth_dir / "corpus.json"),
                 "--ontology", str(synth_dir / "ontology.txt"),
                 "--checkpoint", str(ckpt), "--config", str(cfg),
                 "--seed", "5", "--quiet"])
    assert code == 0 and ckpt.exists()
    return synth_dir, ckpt


def test_every_flag_documented():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, __import__("argparse")._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            assert action.help, f"undocumented flag {action.option_strings} in {name}"


def test_unknown_flag_fails():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--data", "x", "--ontology", "y", "--warp"])
    assert exc.value.code != 0


def test_missing_file_one_line_error(capsys):
    code, out, err = run(capsys, "eval", "--data", "/nonexistent/dump.jsonl",
                         "--ontology", "/nonexistent/ont.txt")
    assert code == 1
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def test_synth_writes_corpus_and_ontology(synth_dir):
    assert (synth_dir / "corpus.json").exists()
    assert (synth_dir / "ontology.txt").exists()


def test_preprocess_outputs_and_stats(tmp_path, capsys):
    out = tmp_path / "prep"
    code, stdout, _ = run(capsys, "preprocess", "--data", str(FIXTURE),
                          "--out", str(out))
    assert code == 0
    assert (out / "corpus.json").exists() and (out / "vocab.txt").exists()
    assert "mean speaker turns" in stdout
    assert "max context length" in stdout


def test_predict_eval_pipeline(trained, tmp_path, capsys):
    synth_dir, ckpt = trained
    dump = tmp_path / "dump.jsonl"
    code, stdout, _ = run(capsys, "predict", "--checkpoint", str(ckpt),
                          "--data", str(synth_dir / "corpus.json"), "--out", str(dump))
    assert code == 0 and dump.exists()
    code, stdout, _ = run(capsys, "eval", "--data", str(dump),
                          "--ontology", str(synth_dir / "ontology.txt"))
    assert code == 0
    assert "joint accuracy" in stdout and "slot accuracy" in stdout


def test_eval_all_correct_prints_100(tmp_path, capsys):
    from lmdst.corpus import BeliefState
    from lmdst.evaluation import TurnPrediction
    state = BeliefState({("hotel", "area"): "east"})
    rows = [TurnPrediction(f"d{i}", 0, 10, state.copy(), state.copy()) for i in range(4)]
    dump = tmp_path / "dump.jsonl"
    write_predictions(dump, rows)
    ontology = tmp_path / "ont.txt"
    ontology.write_text("hotel-area\nhotel-stars\n")
    code, stdout, _ = run(capsys, "eval", "--data", str(dump), "--ontology", str(ontology))
    assert code == 0
    assert stdout.count("100.00") >= 2


def test_analyze_prints_table_numbers(tmp_path, capsys):
    dump = tmp_path / "dump.jsonl"
    write_predictions(dump, build_table_fixture())
    out = tmp_path / "report.jsonl"
    code, stdout, _ = run(capsys, "analyze", "--data", str(dump), "--out", str(out))
    assert code == 0
    for token in ("3,556", "791", "1,480", "1,541", "2,940", "2,466", "1,494",
                  "468", "71.94", "41.69", "23.83", "12.18"):
        assert token in stdout, token
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert {l["kind"] for l in lines} == {"length_bucket", "taxonomy"}


def test_analyze_machine_report_deterministic(tmp_path):
    dump = tmp_path / "dump.jsonl"
    write_predictions(dump, build_table_fixture())
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["analyze", "--data", str(dump), "--out", str(a)]) == 0
    assert main(["analyze", "--data", str(dump), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_emits_rows(synth_dir, tmp_path, capsys):
    out = tmp_path / "sweep.jsonl"
    cfg = tmp_path / "cfg"
    cfg.write_text("hidden_dim = 16\nembedding_dim = 16\nmax_epochs = 1\n"
                   "batch_size = 4\n")
    code, stdout, _ = run(capsys, "sweep", "--data", str(synth_dir / "corpus.json"),
                          "--ontology", str(synth_dir / "ontology.txt"),
                          "--alphas", "0.0,0.9", "--delays", "1",
                          "--config", str(cfg), "--out", str(out))
    assert code == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(rows) == 2
    assert {r["alpha"] for r in rows} == {0.0, 0.9}


def test_ablation_flags_reach_config(tmp_path, capsys):
    out = tmp_path / "c.cfg"
    code, _, _ = run(capsys, "dump-config", "--out", str(out),
                     "--no-lm", "--no-tagging", "--alpha", "0.5")
    assert code == 0
    text = out.read_text()
    assert "lm_enabled = False" in text
    assert "tagging_enabled = False" in text
    assert "alpha = 0.5" in text


def test_dump_config_roundtrip_defaults(tmp_path, capsys):
    out = tmp_path / "c.cfg"
    assert main(["dump-config", "--out", str(out)]) == 0
    from lmdst.training import TrainConfig, load_config_file
    assert load_config_file(out) == TrainConfig()


@pytest.mark.parametrize("line", ["max_value_len = 0", "learning_rate = -1"])
def test_bad_config_value_one_line_error(synth_dir, tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"hidden_dim = 16\nembedding_dim = 16\nmax_epochs = 1\n{line}\n")
    key = line.split()[0]
    code, _, err = run(capsys, "train", "--data", str(synth_dir / "corpus.json"),
                       "--ontology", str(synth_dir / "ontology.txt"),
                       "--checkpoint", str(tmp_path / "m.npz"), "--config", str(cfg),
                       "--quiet")
    assert code == 1
    assert err.startswith("error: ValueError: ") and key in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "m.npz").exists()
    code, _, err = run(capsys, "dump-config", "--config", str(cfg),
                       "--out", str(tmp_path / "out.cfg"))
    assert code == 1 and key in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "out.cfg").exists()


def test_synth_without_flags_is_the_default_config_corpus(tmp_path):
    from lmdst.corpus import SynthConfig, generate_synthetic, save_dialogues
    assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
    dialogues, ontology = generate_synthetic(SynthConfig())
    save_dialogues(tmp_path / "corpus.json", dialogues)
    ontology.save(tmp_path / "ontology.txt")
    for name in ("corpus.json", "ontology.txt"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()
