"""Command-line interface.

Five subcommands: ``gen`` (synthetic corpus), ``stats`` (per-token label
counts), ``train``, ``eval``, and ``infer`` (single sentence).  Exit
codes: 0 success, 1 validation error, 2 I/O error, 3 numerical failure.

Flags beat config-file entries beat defaults; ``--config`` points at a
``key=value`` file whose keys are the flag names.  Every training run
echoes its resolved configuration into the run directory before work
starts.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from cfdetox import checkpoint as ckpt
from cfdetox import data as D
from cfdetox import model as M
from cfdetox import training as T
from cfdetox.errors import CfDetoxError, NumericsError, ValidationError, read_text
from cfdetox.lexicon import load_lexicon, match_biased_tokens, save_lexicon
from cfdetox.metrics import render_table
from cfdetox.training import TrainConfig

CHECKPOINT_FILE = "model.bin"
VOCAB_FILE = "vocab.txt"
CONFIG_FILE = "config.txt"
LOSS_FILE = "loss.csv"


class _Parser(argparse.ArgumentParser):
    """argparse with validation-style exit codes (1, not 2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    defaults = TrainConfig()
    p.add_argument("--epochs", type=int, help=f"training epochs (default: {defaults.epochs})")
    p.add_argument("--batch-size", type=int, help=f"minibatch size (default: {defaults.batch_size})")
    p.add_argument("--learning-rate", type=float, help=f"AdamW learning rate (default: {defaults.learning_rate})")
    p.add_argument("--dropout", type=float, help=f"dropout rate (default: {defaults.dropout})")
    p.add_argument("--hidden", type=int, help=f"MLP hidden width (default: {defaults.hidden})")
    p.add_argument("--lx", type=int,
                   help=f"maximum sentence length; batches pad to their longest row (default: {defaults.lx})")
    p.add_argument("--lb", type=int,
                   help=f"maximum bias-token length; batches pad to their longest row (default: {defaults.lb})")
    p.add_argument("--embed-dim", type=int, help=f"encoder width (default: {defaults.embed_dim})")
    p.add_argument("--eval-every-steps", type=int, help=f"validation cadence (default: {defaults.eval_every_steps})")
    p.add_argument("--weight-decay", type=float, help=f"AdamW decoupled decay (default: {defaults.weight_decay})")
    p.add_argument("--seed", type=int, help="RNG seed (default: 0)")
    p.add_argument("--mode", choices=T.MODES, help="training mode (default: ccdf)")


def build_parser() -> _Parser:
    parser = _Parser(prog="cfdetox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic biased corpus",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--seed", type=int, default=7, help="corpus RNG seed")
    p.add_argument("--out", default="data", help="output directory")
    p.add_argument("--spurious-rate", type=float, default=0.95,
                   help="co-occurrence rate of the bias token with toxic labels")
    p.add_argument("--n-train", type=int, default=4000, help="training examples (before the 10%% valid carve)")
    p.add_argument("--n-test", type=int, default=1000, help="examples per test split")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("stats", help="per-lexicon-token label counts",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--data", required=True, help="JSONL dataset")
    p.add_argument("--lexicon", required=True, help="lexicon CSV")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--data", required=True, help="directory with train.jsonl, valid.jsonl, lexicon.csv")
    p.add_argument("--config", help="key=value file; flags override it")
    p.add_argument("--out", help="run directory (default: runs/<timestamp>)")
    p.add_argument("--runs", type=int, default=1,
                   help="train N seeds (seed, seed+1, ...) and report mean/s.d. of best validation F1")
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--checkpoint", required=True, help="model.bin (vocab.txt/config.txt must sit beside it)")
    p.add_argument("--data", required=True, help="JSONL dataset")
    p.add_argument("--lexicon", required=True, help="lexicon CSV")
    p.add_argument("--inference", choices=T.INFERENCE_RULES, default="tie", help="prediction rule")
    p.add_argument("--ood-data", default=None, help="optional second dataset for the OOD column")
    p.add_argument("--out", default=None, help="report JSON path (default: report-<rule>.json beside the checkpoint)")
    p.add_argument("--records", default=None,
                   help="also write one JSONL inference record per example (ccdf checkpoints)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("infer", help="debiased prediction for one sentence",
                       formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    p.add_argument("--checkpoint", required=True, help="model.bin")
    p.add_argument("--lexicon", required=True, help="lexicon CSV")
    p.add_argument("--text", required=True, help="sentence to score")
    p.set_defaults(func=cmd_infer)
    return parser


# ---------------------------------------------------------------------------
# config resolution
# ---------------------------------------------------------------------------

def _parse_config_file(path: Path) -> dict[str, object]:
    """Typed TrainConfig values from a ``key=value`` file."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        raw[key.strip()] = value.strip()
    defaults = TrainConfig()
    unknown = set(raw) - set(defaults.as_dict())
    if unknown:
        raise ValidationError(f"{path}: unknown config keys: {sorted(unknown)}")
    values: dict[str, object] = {}
    for key, value in raw.items():
        try:
            values[key] = type(getattr(defaults, key))(value)
        except ValueError as exc:
            raise ValidationError(f"{path}: config key {key}={value!r}: {exc}") from exc
    return values


def resolve_train_config(args: argparse.Namespace) -> TrainConfig:
    """flags > config file > dataclass defaults."""
    values = _parse_config_file(Path(args.config)) if args.config else {}
    for f in fields(TrainConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return TrainConfig(**values)


def _write_config(path: Path, config: TrainConfig) -> None:
    lines = [f"{k}={v}" for k, v in sorted(config.as_dict().items())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _load_checkpoint(checkpoint_path: str):
    path = Path(checkpoint_path)
    vocab = D.Vocab.load(path.parent / VOCAB_FILE)
    config = TrainConfig(**_parse_config_file(path.parent / CONFIG_FILE))
    spec = config.spec
    shapes = M.param_shapes(config.model_config(len(vocab)), spec.branches, spec.invariant_responses)
    params = ckpt.load_params(path, expect_shapes=shapes)
    return params, config, vocab


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    if args.n_train < 2:
        raise ValidationError(f"--n-train must be >= 2 (the last 10%, at least one example, "
                              f"becomes valid.jsonl), got {args.n_train}")
    train, test_iid, test_flipped = D.generate_synthetic_corpus(
        args.seed, args.n_train, args.n_test, args.spurious_rate
    )
    n_valid = max(1, len(train) // 10)
    train, valid = train[:-n_valid], train[-n_valid:]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    D.save_jsonl(out / "train.jsonl", train)
    D.save_jsonl(out / "valid.jsonl", valid)
    D.save_jsonl(out / "test_iid.jsonl", test_iid)
    D.save_jsonl(out / "test_flipped.jsonl", test_flipped)
    save_lexicon(out / "lexicon.csv", D.synthetic_lexicon(), header="synthetic lexicon")
    print(f"wrote train={len(train)} valid={len(valid)} test_iid={len(test_iid)} "
          f"test_flipped={len(test_flipped)} to {out}/")
    for name, split in (("train", train), ("test_iid", test_iid), ("test_flipped", test_flipped)):
        toxic = [ex for ex in split if ex.label == 1]
        with_bias = sum(1 for ex in toxic if D.BIAS_TOKEN in ex.tokens)
        p_bias = f"{with_bias / len(toxic):.3f}" if toxic else "n/a"
        print(f"  {name}: label-1 fraction {len(toxic) / len(split):.3f}, "
              f"P({D.BIAS_TOKEN} | toxic) = {p_bias}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    examples = D.load_jsonl(args.data)
    lexicon = load_lexicon(args.lexicon)
    rows = D.lexicon_label_stats(examples, lexicon)
    missing = len(lexicon.entries) - len(rows)
    widths = max([len("Token")] + [len(r[0]) for r in rows])
    print(f"{'Token'.ljust(widths)}  {'Toxic':>7}  {'Non-Toxic':>9}  {'Ratio (%)':>9}")
    for surface, toxic, nontoxic, ratio in rows:
        print(f"{surface.ljust(widths)}  {toxic:>7}  {nontoxic:>9}  {ratio:>9.2f}")
    if missing:
        print(f"({missing} lexicon token(s) with no occurrences omitted)")
    return 0


def _run_dir(args: argparse.Namespace) -> Path:
    if args.out:
        return Path(args.out)
    return Path("runs") / time.strftime("train-%Y%m%d-%H%M%S")


def _write_loss_csv(path: Path, result: T.TrainResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["step", "loss_f", "loss_e", "loss_x", "loss_b", "val_f1"])
        for log in result.history:
            writer.writerow(
                [log.step]
                + [f"{log.losses[k]:.6f}" if k in log.losses else "" for k in ("f", "e", "x", "b")]
                + [f"{log.val_f1:.6f}" if log.val_f1 is not None else ""]
            )


def _train_one(config: TrainConfig, data_dir: Path, run_dir: Path) -> T.TrainResult:
    train_set = D.load_jsonl(data_dir / "train.jsonl")
    valid_set = D.load_jsonl(data_dir / "valid.jsonl")
    lexicon = load_lexicon(data_dir / "lexicon.csv")
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_config(run_dir / CONFIG_FILE, config)
    result = T.train(config, train_set, valid_set, lexicon)
    result.vocab.save(run_dir / VOCAB_FILE)
    ckpt.save_params(run_dir / CHECKPOINT_FILE, result.params)
    _write_loss_csv(run_dir / LOSS_FILE, result)
    best = "n/a" if result.best_val_f1 is None else f"{result.best_val_f1:.4f}"
    print(f"[{run_dir}] best validation F1 {best} at step {result.best_step} "
          f"({len(result.history)} steps, mode={config.mode})")
    return result


def cmd_train(args: argparse.Namespace) -> int:
    config = resolve_train_config(args)
    data_dir = Path(args.data)
    run_dir = _run_dir(args)
    if args.runs < 1:
        raise ValidationError(f"--runs must be >= 1, got {args.runs}")
    replace(config, seed=config.seed + args.runs - 1)  # the last run's seed must be valid too
    if args.runs == 1:
        _train_one(config, data_dir, run_dir)
        return 0
    scores = []
    for i in range(args.runs):
        cfg_i = replace(config, seed=config.seed + i)
        result = _train_one(cfg_i, data_dir, run_dir / f"run{i:02d}")
        scores.append(result.best_val_f1 if result.best_val_f1 is not None else 0.0)
    print(f"best validation F1 over {args.runs} runs: "
          f"mean {np.mean(scores):.4f}, s.d. {np.std(scores):.4f}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    params, config, vocab = _load_checkpoint(args.checkpoint)
    if args.records and not config.spec.invariant_responses:
        raise ValidationError("--records needs a ccdf checkpoint (no effect scores otherwise)")
    lexicon = load_lexicon(args.lexicon)
    examples = D.load_jsonl(args.data)
    if not examples:
        raise ValidationError(f"dataset {args.data} is empty")
    report = T.evaluate(params, config, examples, lexicon, vocab, args.inference)
    ood_report = None
    if args.ood_data:
        ood_examples = D.load_jsonl(args.ood_data)
        if not ood_examples:
            raise ValidationError(f"dataset {args.ood_data} is empty")
        ood_report = T.evaluate(params, config, ood_examples, lexicon, vocab, args.inference)
    if args.records:
        with open(args.records, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(record) + "\n" for record in report.records)
        print(f"per-example records written to {args.records}")
    # the report goes last, so a failed eval leaves no fresh report behind
    out = Path(args.out) if args.out else Path(args.checkpoint).parent / f"report-{args.inference}.json"
    payload = report.as_dict()
    if ood_report is not None:
        payload["ood"] = ood_report.as_dict()
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(render_table(report, ood_report))
    print(f"report written to {out}")
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    if not args.text.strip():
        raise ValidationError("--text is empty")
    params, config, vocab = _load_checkpoint(args.checkpoint)
    if not config.spec.invariant_responses:
        raise ValidationError(f"infer needs a ccdf checkpoint, got mode {config.mode!r}")
    lexicon = load_lexicon(args.lexicon)
    example = D.Example.from_text(args.text, 0)
    matched = match_biased_tokens(example.tokens, lexicon)
    batch = D.encode_batch([example], lexicon, vocab, config.lx, config.lb)
    record = T.predict_batch(params, batch, config.spec)[0]
    record["categories"] = sorted(matched.categories)
    record["text"] = args.text
    record["biased_tokens"] = [
        {"token": tok, "category": lexicon.category(tok)} for tok in matched.tokens
    ]
    print(json.dumps(record, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    except NumericsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, CfDetoxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
