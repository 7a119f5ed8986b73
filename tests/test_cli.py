import json
from pathlib import Path

import pytest

from conftest import build_table_fixture
from lmdst import autodiff as ad
from lmdst import cli
from lmdst.cli import build_parser, main
from lmdst.evaluation import write_predictions
from test_model import tiny_model

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
    assert [p.name for p in out.iterdir()] == ["corpus.json"]
    assert "mean speaker turns" in stdout
    assert "max context length" in stdout


def test_preprocess_non_object_dialogue_one_line_error(tmp_path, capsys):
    data, out = tmp_path / "bad.json", tmp_path / "prep"
    data.write_text("[1]")
    code, _, err = run(capsys, "preprocess", "--data", str(data), "--out", str(out))
    assert code == 1
    assert err.startswith("error: CorpusFormatError: dialogue #0: ")
    assert len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_preprocess_malformed_slot_name_one_line_error(tmp_path, capsys):
    data, out = tmp_path / "bad.json", tmp_path / "prep"
    data.write_text(json.dumps([{"dialogue_idx": "D1", "dialogue": [
        {"turn_idx": 0, "system_transcript": "", "transcript": "hi .",
         "belief_state": [{"slots": [["hotelarea", "east"]], "act": "inform"}]}]}]))
    code, _, err = run(capsys, "preprocess", "--data", str(data), "--out", str(out))
    assert code == 1
    assert err == ("error: CorpusFormatError: dialogue D1, turn 0: "
                   "slot name 'hotelarea' is not 'domain-slot'\n")
    assert not out.exists()


def test_preprocess_empty_exclude_domains_drops_no_domain(tmp_path, capsys):
    """``--exclude-domains ""`` drops nothing; without the flag the default
    (hospital, police) is dropped."""
    data, out = tmp_path / "d.json", tmp_path / "prep"
    data.write_text(json.dumps([
        {"dialogue_idx": name, "domains": [domain], "dialogue": [
            {"turn_idx": 0, "system_transcript": "", "transcript": f"a {domain} please .",
             "belief_state": []}]}
        for name, domain in (("P1", "police"), ("H1", "hotel"))]))
    for flags, kept in (([], 1), (["--exclude-domains", ""], 2),
                        (["--exclude-domains", "taxi"], 2)):
        code, stdout, _ = run(capsys, "preprocess", "--data", str(data), "--out", str(out),
                              *flags)
        assert code == 0 and stdout.startswith(f"dialogues: {kept}\n")


def test_preprocess_exclude_domains_ignores_spaces(tmp_path, capsys):
    """Names in ``--exclude-domains`` are stripped, so a space after a comma
    changes nothing."""
    data = tmp_path / "d.json"
    data.write_text(json.dumps([
        {"dialogue_idx": domain.upper(), "domains": [domain], "dialogue": [
            {"turn_idx": 0, "system_transcript": "", "transcript": f"a {domain} please .",
             "belief_state": []}]}
        for domain in ("taxi", "train", "hotel")]))
    for name, value in (("a", "taxi,train"), ("b", "taxi, train")):
        code, stdout, _ = run(capsys, "preprocess", "--data", str(data),
                              "--out", str(tmp_path / name), "--exclude-domains", value)
        assert code == 0 and stdout.startswith("dialogues: 1\n")
    assert (tmp_path / "a" / "corpus.json").read_bytes() == \
        (tmp_path / "b" / "corpus.json").read_bytes()


def test_train_empty_first_turn_one_line_error(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fit ran on a dialogue with an empty first turn")

    monkeypatch.setattr(cli, "fit", refuse)
    data, ontology = tmp_path / "d.json", tmp_path / "ont.txt"
    data.write_text(json.dumps([{"dialogue_idx": "E1", "dialogue": [
        {"turn_idx": 0, "system_transcript": "", "transcript": "", "belief_state": []}]}]))
    ontology.write_text("hotel-area\n")
    code, _, err = run(capsys, "train", "--data", str(data), "--ontology", str(ontology),
                       "--checkpoint", str(tmp_path / "m.npz"))
    assert code == 1
    assert err == "error: CorpusFormatError: dialogue E1, turn 0: no system or user utterance\n"


OUTPUT_FLAGS = [("train", "--checkpoint"), ("train", "--out"), ("sweep", "--out"),
                ("predict", "--out"), ("analyze", "--out"), ("dump-config", "--out")]


def run_refusing_work(synth_dir, tmp_path, capsys, monkeypatch, command, flag, out):
    """Run ``command`` with ``flag`` set to ``out``; every command's first
    step is patched to fail, so only a check made before it can answer."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{command} ran with {flag} {out}")

    for owner, name in ((cli, "fit"), (cli, "sweep"), (cli.DstModel, "load"),
                        (cli, "read_predictions"), (cli, "save_config_file")):
        monkeypatch.setattr(owner, name, refuse)
    corpus = {"--data": synth_dir / "corpus.json", "--ontology": synth_dir / "ontology.txt"}
    checkpoint = {"--checkpoint": tmp_path / "m.npz"}
    outputs = {"train": {**corpus, **checkpoint}, "sweep": dict(corpus),
               "predict": {**checkpoint, "--data": corpus["--data"]},
               "analyze": {"--data": tmp_path / "dump.jsonl"}, "dump-config": {}}[command]
    outputs[flag] = out
    return run(capsys, command, *(str(x) for pair in outputs.items() for x in pair))


@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
def test_missing_output_directory_fails_before_the_run(synth_dir, tmp_path, capsys,
                                                       monkeypatch, command, flag):
    """Every flag naming a written path is checked before the command's
    first step."""
    missing = tmp_path / "nodir"
    code, _, err = run_refusing_work(synth_dir, tmp_path, capsys, monkeypatch,
                                     command, flag, missing / "out")
    assert code == 1
    assert err.startswith("error: FileNotFoundError: ") and str(missing) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
def test_output_path_that_is_a_directory_fails_before_the_run(synth_dir, tmp_path, capsys,
                                                              monkeypatch, command, flag):
    """An output path naming an existing directory is refused by the same
    check, not by the write after the command's work."""
    existing = tmp_path / "outdir"
    existing.mkdir()
    code, _, err = run_refusing_work(synth_dir, tmp_path, capsys, monkeypatch,
                                     command, flag, existing)
    assert code == 1
    assert err == f"error: IsADirectoryError: output path {existing} is a directory\n"


def test_train_empty_ontology_one_line_error(synth_dir, tmp_path, capsys):
    ontology = tmp_path / "empty.txt"
    ontology.write_text("")
    code, _, err = run(capsys, "train", "--data", str(synth_dir / "corpus.json"),
                       "--ontology", str(ontology), "--checkpoint", str(tmp_path / "m.npz"),
                       "--quiet")
    assert code == 1
    assert err == f"error: ValueError: ontology {ontology} lists no slot\n"


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


@pytest.mark.parametrize("meta", [5, "hidden_dim vocab ontology"], ids=["number", "string"])
def test_predict_metadata_not_an_object_one_line_error(synth_dir, tmp_path, capsys, meta):
    ckpt = tmp_path / "model.npz"
    ad.save_checkpoint(ckpt, tiny_model().store.state_dict(), meta)
    code, _, err = run(capsys, "predict", "--checkpoint", str(ckpt),
                       "--data", str(synth_dir / "corpus.json"),
                       "--out", str(tmp_path / "dump.jsonl"))
    assert code == 1
    assert err == f"error: CheckpointError: checkpoint {ckpt}: metadata is not a JSON object\n"


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


def test_analyze_non_object_state_one_line_error(tmp_path, capsys):
    dump = tmp_path / "dump.jsonl"
    dump.write_text(json.dumps({"dialogue_id": "d", "turn_index": 0, "context_length": 3,
                                "predicted": [], "gold": {"hotel-area": "east"}}) + "\n")
    code, _, err = run(capsys, "analyze", "--data", str(dump))
    assert code == 1
    assert err == ("error: ValueError: prediction dump line 1: "
                   "belief state is list, not a JSON object\n")


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


@pytest.mark.parametrize("line", ["max_value_len = 0", "learning_rate = -1", "seed = -1",
                                  "hidden_dim = 64", "min_count = 0", "max_epochs = 1.5",
                                  "dropout = abc", "learning_rate = nan",
                                  "learning_rate = inf", "max_epochs = 1"])
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


def test_synth_negative_seed_one_line_error(tmp_path, capsys):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "s"), "--seed", "-1")
    assert code == 1
    assert err.startswith("error: ValueError: ") and "seed" in err
    assert len(err.strip().splitlines()) == 1


# What dump-config writes with no flags, field by field.
DEFAULT_CONFIG = {
    "alpha": "0.9", "delay_update_steps": "4", "batch_size": "8", "hidden_dim": "400",
    "embedding_dim": "400", "learning_rate": "0.001", "max_epochs": "30", "patience": "6",
    "seed": "13", "tagging_enabled": "True", "lm_enabled": "True", "dropout": "0.2",
    "word_dropout": "0.15", "min_count": "1", "val_fraction": "0.1", "max_value_len": "10",
    "freeze_embeddings": "False"}


def test_dump_config_flags_write_fixed_bytes(tmp_path):
    """dump-config with no flags, and with every training flag set, writes
    exactly these bytes."""
    every_flag = dict(DEFAULT_CONFIG, seed="3", alpha="0.5", delay_update_steps="2",
                      batch_size="4", lm_enabled="False", tagging_enabled="False",
                      min_count="2", max_epochs="7")
    out = tmp_path / "c.cfg"
    for flags, fields in (([], DEFAULT_CONFIG),
                          (["--seed", "3", "--alpha", "0.5", "--delay-steps", "2",
                            "--batch-size", "4", "--no-lm", "--no-tagging",
                            "--min-count", "2", "--max-epochs", "7"], every_flag)):
        assert main(["dump-config", "--out", str(out), *flags]) == 0
        assert out.read_bytes() == "".join(f"{k} = {v}\n" for k, v in fields.items()).encode()


def test_synth_without_flags_is_the_default_config_corpus(tmp_path):
    from lmdst.corpus import SynthConfig, generate_synthetic, save_dialogues
    assert main(["synth", "--out", str(tmp_path / "cli")]) == 0
    dialogues, ontology = generate_synthetic(SynthConfig())
    save_dialogues(tmp_path / "corpus.json", dialogues)
    ontology.save(tmp_path / "ontology.txt")
    for name in ("corpus.json", "ontology.txt"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()
