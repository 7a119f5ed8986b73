"""Command-line entry point wiring the pipeline.

Subcommands: preprocess, synth, train, predict, eval, analyze, sweep,
dump-config.
Stages communicate through files only; all randomness funnels through the
--seed flag (or the config file's seed). DST_LOG sets log verbosity.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import autodiff as ad
from .context import context_length_stats
from .corpus import (DEFAULT_EXCLUDED_DOMAINS, CorpusFormatError, Ontology, SynthConfig,
                     filter_domains, generate_synthetic, load_multiwoz, mean_speaker_turns,
                     save_dialogues)
from .embeddings import VectorFileError
from .evaluation import (format_length_table, format_metrics_table,
                         format_taxonomy_table, joint_accuracy, length_report,
                         read_predictions, slot_accuracy, taxonomy_report,
                         write_jsonl, write_predictions)
from .model import DstModel
from .training import (TrainConfig, fit, load_config_file, predict_instances,
                       save_config_file, sweep)


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    # Each flag's dest is a TrainConfig field; a flag not given keeps the
    # config file's value, or the default.
    p.add_argument("--config", type=Path, help="key = value config file (flags win)")
    p.add_argument("--seed", type=int, help="master random seed")
    p.add_argument("--alpha", type=float, help="LM loss weight in the total loss")
    p.add_argument("--delay-steps", type=int, dest="delay_update_steps",
                   help="micro-batches accumulated per parameter update")
    p.add_argument("--batch-size", type=int, dest="batch_size", help="micro-batch size")
    p.add_argument("--no-lm", action="store_false", dest="lm_enabled", default=None,
                   help="disable the auxiliary language model (-LM ablation)")
    p.add_argument("--no-tagging", action="store_false", dest="tagging_enabled", default=None,
                   help="disable [sys]/[usr] context tags (-Tagging ablation)")
    p.add_argument("--min-count", type=int, dest="min_count",
                   help="vocabulary frequency threshold")
    p.add_argument("--max-epochs", type=int, dest="max_epochs", help="epoch cap")


def _given(args, config_cls) -> dict:
    """The flags given on the command line whose dests are fields of ``config_cls``."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(config_cls)
            if getattr(args, f.name, None) is not None}


def _train_config(args) -> TrainConfig:
    cfg = TrainConfig() if args.config is None else load_config_file(args.config)
    return dataclasses.replace(cfg, **_given(args, TrainConfig))


def cmd_preprocess(args) -> int:
    ontology = Ontology.load(args.ontology) if args.ontology else None
    dialogues = load_multiwoz(args.data, ontology)
    excluded = {name.strip() for name in args.exclude_domains.split(",")} - {""}
    dialogues = filter_domains(dialogues, excluded)
    args.out.mkdir(parents=True, exist_ok=True)
    save_dialogues(args.out / "corpus.json", dialogues)
    stats = context_length_stats(dialogues)
    print(f"dialogues: {len(dialogues)}")
    print(f"mean speaker turns: {mean_speaker_turns(dialogues):.2f}")
    print(f"turn instances: {stats['instances']}")
    print(f"max context length (untagged): {stats['max_length']}")
    print(f"fraction >= 200 tokens: {stats['fraction_ge_200']:.4f}")
    print("bucket counts: " + "  ".join(f"{k}: {v:,}" for k, v in stats["bucket_counts"].items()))
    print(f"corpus -> {args.out / 'corpus.json'}")
    return 0


def cmd_synth(args) -> int:
    dialogues, ontology = generate_synthetic(SynthConfig(**_given(args, SynthConfig)))
    args.out.mkdir(parents=True, exist_ok=True)
    save_dialogues(args.out / "corpus.json", dialogues)
    ontology.save(args.out / "ontology.txt")
    print(f"{len(dialogues)} dialogues, {sum(len(d.turns) for d in dialogues)} turns, "
          f"{len(ontology)} slots -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _train_config(args)
    ontology = Ontology.load(args.ontology)
    dialogues = load_multiwoz(args.data, ontology)
    model, report = fit(dialogues, ontology, cfg, checkpoint_path=args.checkpoint,
                        vectors_path=args.vectors, progress=not args.quiet)
    best = report.epochs[report.best_epoch - 1]
    print(format_metrics_table(report.best_val_joint, best.val_slot, label=report.ablation))
    if args.out:
        args.out.write_text(json.dumps(dataclasses.asdict(report), indent=1, sort_keys=True))
        print(f"training report -> {args.out}")
    print(f"best epoch {report.best_epoch}, checkpoint -> {args.checkpoint}")
    return 0


def cmd_predict(args) -> int:
    model = DstModel.load(args.checkpoint)
    dialogues = load_multiwoz(args.data, model.ontology)
    preds = predict_instances(model, dialogues)
    write_predictions(args.out, preds)
    print(f"{len(preds)} turn predictions -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    preds = read_predictions(args.data)
    ontology = Ontology.load(args.ontology)
    print(format_metrics_table(joint_accuracy(preds), slot_accuracy(preds, ontology)))
    return 0


def cmd_analyze(args) -> int:
    preds = read_predictions(args.data)
    report = length_report(preds)
    counts = taxonomy_report(preds)
    print("joint accuracy by context length:")
    print(format_length_table(report))
    print()
    print("prediction error taxonomy:")
    print(format_taxonomy_table(counts))
    if args.out:
        rows = [{"kind": "length_bucket", "bucket": label, **row} for label, row in report.items()]
        write_jsonl(args.out, rows + [{"kind": "taxonomy", **counts}])
        print(f"\nmachine-readable report -> {args.out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _train_config(args)
    ontology = Ontology.load(args.ontology)
    dialogues = load_multiwoz(args.data, ontology)
    alphas = [float(a) for a in args.alphas.split(",")]
    delays = [int(d) for d in args.delays.split(",")]
    rows = sweep(alphas, delays, dialogues, ontology, cfg)
    print(f"{'alpha':>8} {'delay':>6} {'val joint':>10} {'epochs':>7}")
    for r in rows:
        print(f"{r['alpha']:>8.2f} {r['delay_update_steps']:>6d} "
              f"{r['val_joint_accuracy']:>10.2f} {r['epochs']:>7d}")
    if args.out:
        write_jsonl(args.out, rows)
        print(f"sweep table -> {args.out}")
    return 0


def cmd_dump_config(args) -> int:
    save_config_file(args.out, _train_config(args))
    print(f"config -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmdst",
        description="Dialogue state generation with utterance tagging and an "
                    "auxiliary bi-directional language model.")
    sub = parser.add_subparsers(dest="command", required=True)
    # ``outputs`` names the flags whose paths a command writes, for main's check;
    # preprocess and synth make their --out directory.

    p = sub.add_parser("preprocess", help="normalize a dataset file, emit corpus + statistics")
    p.add_argument("--data", type=Path, required=True, help="dataset file (per-turn JSON)")
    p.add_argument("--ontology", type=Path, help="ontology file (domain-slot per line)")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--exclude-domains", dest="exclude_domains",
                   default=",".join(sorted(DEFAULT_EXCLUDED_DOMAINS)),
                   help="comma list of domains to drop (default: %(default)s)")
    p.set_defaults(func=cmd_preprocess, outputs=())

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    # Each flag's dest is a SynthConfig field; a flag not given keeps its default.
    for flag, dest, text in (
            ("--seed", "seed", "generator seed"),
            ("--dialogues", "n_dialogues", "number of dialogues"),
            ("--domains", "n_domains", "number of domains"),
            ("--slots-per-domain", "n_slots_per_domain", "slots per domain"),
            ("--vocab-size", "vocab_size", "value-word pool size"),
            ("--max-turns", "max_turns", "maximum turns per dialogue"),
            ("--dontcare-rate", "dontcare_rate", "fraction of slot mentions that are dontcare")):
        default = getattr(SynthConfig, dest)
        p.add_argument(flag, type=type(default), dest=dest, help=f"{text} (default {default})")
    p.set_defaults(func=cmd_synth, outputs=())

    p = sub.add_parser("train", help="train a model, persist the best checkpoint")
    p.add_argument("--data", type=Path, required=True, help="corpus file")
    p.add_argument("--ontology", type=Path, required=True, help="ontology file")
    p.add_argument("--checkpoint", type=Path, required=True, help="checkpoint output path")
    p.add_argument("--out", type=Path, help="training report JSON output path")
    p.add_argument("--vectors", type=Path,
                   help="optional GloVe-format word vectors for the embedding word part")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch progress")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train, outputs=("checkpoint", "out"))

    p = sub.add_parser("predict", help="write a prediction dump for a corpus")
    p.add_argument("--checkpoint", type=Path, required=True, help="trained checkpoint")
    p.add_argument("--data", type=Path, required=True, help="corpus file")
    p.add_argument("--out", type=Path, required=True, help="prediction dump output (JSONL)")
    p.set_defaults(func=cmd_predict, outputs=("out",))

    p = sub.add_parser("eval", help="joint/slot accuracy of a prediction dump")
    p.add_argument("--data", type=Path, required=True, help="prediction dump (JSONL)")
    p.add_argument("--ontology", type=Path, required=True, help="ontology file")
    p.set_defaults(func=cmd_eval, outputs=())

    p = sub.add_parser("analyze", help="length-bucket and error-taxonomy reports")
    p.add_argument("--data", type=Path, required=True, help="prediction dump (JSONL)")
    p.add_argument("--out", type=Path, help="machine-readable report output (JSONL)")
    p.set_defaults(func=cmd_analyze, outputs=("out",))

    p = sub.add_parser("sweep", help="alpha x delay grid of training runs")
    p.add_argument("--data", type=Path, required=True, help="corpus file")
    p.add_argument("--ontology", type=Path, required=True, help="ontology file")
    p.add_argument("--alphas", default="0.0,0.5,0.9", help="comma list of alpha values")
    p.add_argument("--delays", default="1,4", help="comma list of delay step counts")
    p.add_argument("--out", type=Path, help="sweep table output (JSONL)")
    _add_train_flags(p)
    p.set_defaults(func=cmd_sweep, outputs=("out",))

    p = sub.add_parser("dump-config", help="write the effective training config")
    p.add_argument("--out", type=Path, required=True, help="config file output path")
    _add_train_flags(p)
    p.set_defaults(func=cmd_dump_config, outputs=("out",))

    return parser


def main(argv=None) -> int:
    level = os.environ.get("DST_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in (getattr(args, name) for name in args.outputs):  # before any work
            if path is not None and not path.parent.is_dir():
                raise FileNotFoundError(f"output directory {path.parent} of {path} does not exist")
            if path is not None and path.is_dir():
                raise IsADirectoryError(f"output path {path} is a directory")
        return args.func(args)
    except (CorpusFormatError, VectorFileError, ad.CheckpointError, ad.GraphError,
            ad.ShapeError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
