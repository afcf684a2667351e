"""End-to-end benchmark of the cfdetox CLI, one fresh process per operation.

    python3 perfbench/run.py --workload train-stock --seed 1 --seconds 15 --trace 0

Run from anywhere inside a source checkout; the package is imported from
``src/`` of the checkout that holds this file, and every file the run
writes goes under ``.perfbench_work/`` there.

Workloads (see README.md for why each exists):

* ``train-stock`` -- ``cfdetox gen`` corpus at 4000/1000, stock config.
* ``train-long``  -- the same label pattern with 100-115 filler tokens
  per sentence from about 3000 words.
* ``eval-infer``  -- the stock experiment's checkpoint (seed-7 corpus,
  every default) scoring the run's generated test splits.

Each is a closed loop with one client: the next CLI call starts when the
previous one has returned.  A cycle is ``train`` (train-* only), then
``eval --records`` over the flipped and iid test splits, each eval
followed by ``infer`` on distinct sentences; cycles repeat until
``--seconds`` have passed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
cycle twice, untraced and under ``tracer.py``, plus (train-* only) a
short probe training per mode, and prints the per-layer metrics.  Every
operation's output is checked; the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from aggregate import MODES, PER_LAYER, SpanFile, per_layer
from inputs import infer_sentences, lengthen_corpus, read_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CLI = "import sys; from cfdetox.cli import main; sys.exit(main())"  # what the `cfdetox` script runs
BATCH_SIZE = 8  # the stock default, which every training here keeps
FIXTURE_SEED = 7  # the stock experiment
SETUP_EVERY = 5  # infer calls between set-up probes, so they sample the whole run
PROBE_EXAMPLES = 800  # train.jsonl rows per mode probe, 90 steps at one epoch
RUN_BUDGET_S = 170.0

END_TO_END: list[tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("train_examples_per_s", "ex/s", "higher"),
    ("eval_examples_per_s", "ex/s", "higher"),
    ("infer_ms_p50", "ms", "lower"),
    ("infer_ms_p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# a fresh interpreter loading what the workload's commands load, with no model work
SETUP_PROBE = """
import sys
import cfdetox.cli
from cfdetox import checkpoint, data
from cfdetox.lexicon import load_lexicon
lexicon, ckpt_dir, *corpus = sys.argv[1:]
n = sum(len(data.load_jsonl(path)) for path in corpus)
load_lexicon(lexicon)
if ckpt_dir != "-":
    data.Vocab.load(ckpt_dir + "/vocab.txt")
    checkpoint.load_params(ckpt_dir + "/model.bin")
print(n)
"""

ENV_PROBE = """
import json, sys
import numpy
import cfdetox.cli
import cfdetox.kernels
print(json.dumps({"backend": cfdetox.kernels.BACKEND, "numpy": numpy.__version__,
                  "python": sys.version.split()[0]}))
"""


@dataclass(frozen=True)
class Workload:
    corpus: str  # "stock" or "long"
    n_train: int
    n_test: int
    train_epochs: int | None  # None: no train in the cycle; eval the stock fixture instead
    evals_per_cycle: int
    infers_per_eval: int  # infer calls after each eval

    @property
    def fixture(self) -> bool:
        return self.train_epochs is None

    @property
    def infers_per_cycle(self) -> int:
        return self.evals_per_cycle * self.infers_per_eval


WORKLOADS = {
    "train-stock": Workload("stock", 4000, 1000, train_epochs=1, evals_per_cycle=2, infers_per_eval=15),
    "train-long": Workload("long", 2400, 500, train_epochs=1, evals_per_cycle=2, infers_per_eval=15),
    "eval-infer": Workload("stock", 10, 1000, train_epochs=None, evals_per_cycle=1, infers_per_eval=25),
}


class BenchError(RuntimeError):
    """The run cannot go on: broken layout or inputs that cannot be made."""


@dataclass
class Op:
    """One CLI call and what checking its output found."""

    kind: str
    key: str  # identity of the inputs: equal keys must give equal digests
    wall_s: float
    rss_mb: float
    code: int
    examples: int = 0
    digest: str = ""
    problems: list[str] = field(default_factory=list)
    quality: dict | None = None
    spans: Path | None = None  # span file prefix of a traced call

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Runner:
    """Runs children one at a time and reads each one's own rusage."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.n = 0

    def run(self, argv: list[str]) -> tuple[float, float, int, str, str]:
        """(wall s, peak RSS MB, exit code, stdout, stderr) of one child."""
        self.n += 1
        out_path, err_path = self.work / f"proc{self.n}.out", self.work / f"proc{self.n}.err"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run budget exhausted")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        stdout = out_path.read_text(encoding="utf-8", errors="replace")
        stderr = err_path.read_text(encoding="utf-8", errors="replace")
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr

    def cli(self, args: list[str], trace_prefix: Path | None = None):
        if trace_prefix is None:
            argv = [sys.executable, "-c", CLI, *args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_prefix), "--", *args]
        return self.run(argv)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def gen(runner: Runner, out: Path, seed: int, n_train: int, n_test: int) -> None:
    wall, _, code, _, err = runner.cli(["gen", "--seed", str(seed), "--out", str(out),
                                        "--n-train", str(n_train), "--n-test", str(n_test)])
    if code != 0:
        raise BenchError(f"cfdetox gen failed with exit code {code}: {err.strip()[-500:]}")


def make_inputs(runner: Runner, wl: Workload, seed: int) -> Path:
    data = runner.work / "data"
    if wl.corpus == "stock":
        gen(runner, data, seed, wl.n_train, wl.n_test)
    else:
        stock = runner.work / "data-stock"
        gen(runner, stock, seed, wl.n_train, wl.n_test)
        lengthen_corpus(stock, data, seed)
    return data


def subset_corpus(src: Path, dst: Path, n_train: int) -> Path:
    """The first ``n_train`` training rows and a tenth as many validation rows."""
    dst.mkdir(parents=True, exist_ok=True)
    for split, n in (("train", n_train), ("valid", max(1, n_train // 10))):
        lines = (src / f"{split}.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        (dst / f"{split}.jsonl").write_text("".join(lines[:n]), encoding="utf-8")
    shutil.copyfile(src / "lexicon.csv", dst / "lexicon.csv")
    return dst


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cfdetox").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def sha256(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# operations and their output checks
# ---------------------------------------------------------------------------

def train_op(runner: Runner, data: Path, out: Path, epochs: int | None, key: str,
             mode: str = "ccdf", trace: Path | None = None) -> Op:
    shutil.rmtree(out, ignore_errors=True)
    args = ["train", "--data", str(data), "--out", str(out), "--mode", mode]
    if epochs is not None:
        args += ["--epochs", str(epochs)]
    wall, rss, code, _, err = runner.cli(args, trace)
    op = Op("train", key, wall, rss, code, spans=trace)
    if code != 0:
        op.problems.append(f"exit {code}: {err.strip()[-300:]}")
        return op
    try:
        with open(out / "loss.csv", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        losses = [float(v) for row in rows for k, v in row.items() if k.startswith("loss_") and v]
        blob = (out / "model.bin").read_bytes()
    except (OSError, ValueError) as exc:
        op.problems.append(f"missing or unreadable output: {exc}")
        return op
    if not rows or not losses or not all(math.isfinite(v) for v in losses):
        op.problems.append("loss.csv is empty or holds non-finite losses")
    op.examples = len(rows) * BATCH_SIZE
    op.digest = sha256(blob)
    return op


def _rule_quality(data: Path, records: list[dict], report: dict) -> dict:
    """tie/te FPR on the flipped split (from the records) and accuracy on
    the iid split (from the report's ood block)."""
    labels = [row["label"] for row in read_jsonl(data / "test_flipped.jsonl")]
    negatives = [i for i, y in enumerate(labels) if y == 0]
    by_rule = report["ood"]["by_rule"]
    return {
        "fpr_tie": sum(records[i]["tie_label"] for i in negatives) / len(negatives),
        "fpr_te": sum(records[i]["te_label"] for i in negatives) / len(negatives),
        "acc_iid_tie": by_rule["tie"]["accuracy"],
        "acc_iid_te": by_rule["te"]["accuracy"],
    }


def eval_op(runner: Runner, data: Path, ckpt_dir: Path, out: Path, key: str,
            acceptance: bool, trace: Path | None = None) -> Op:
    out.mkdir(parents=True, exist_ok=True)
    report_path, records_path = out / "report.json", out / "records.jsonl"
    for path in (report_path, records_path):
        path.unlink(missing_ok=True)
    wall, rss, code, _, err = runner.cli(
        ["eval", "--checkpoint", str(ckpt_dir / "model.bin"),
         "--data", str(data / "test_flipped.jsonl"), "--ood-data", str(data / "test_iid.jsonl"),
         "--lexicon", str(data / "lexicon.csv"), "--inference", "tie",
         "--records", str(records_path), "--out", str(report_path)], trace)
    op = Op("eval", key, wall, rss, code, spans=trace)
    if code != 0:
        op.problems.append(f"exit {code}: {err.strip()[-300:]}")
        return op
    try:
        report_blob, records_blob = report_path.read_bytes(), records_path.read_bytes()
        report = json.loads(report_blob)
        records = [json.loads(line) for line in records_blob.splitlines()]
        n_flipped, n_iid = report["dataset_size"], report["ood"]["dataset_size"]
        if len(records) != n_flipped:
            raise ValueError(f"{len(records)} records for {n_flipped} flipped examples")
        q = _rule_quality(data, records, report)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        op.problems.append(f"missing or malformed output: {exc!r}")
        return op
    op.examples = n_flipped + n_iid
    op.digest = sha256(report_blob, b"\0", records_blob)
    op.quality = q
    if acceptance and not (q["fpr_tie"] <= 0.5 * q["fpr_te"] and q["acc_iid_te"] - q["acc_iid_tie"] <= 0.02):
        op.problems.append(f"acceptance bounds missed: {q}")
    return op


def infer_op(runner: Runner, ckpt_dir: Path, lexicon: Path, text: str, key: str,
             trace: Path | None = None) -> Op:
    wall, rss, code, stdout, err = runner.cli(
        ["infer", "--checkpoint", str(ckpt_dir / "model.bin"), "--lexicon", str(lexicon), "--text", text], trace)
    op = Op("infer", key, wall, rss, code, spans=trace)
    if code != 0:
        op.problems.append(f"exit {code}: {err.strip()[-300:]}")
        return op
    try:
        record = json.loads(stdout)
    except ValueError as exc:
        op.problems.append(f"stdout is not one JSON record: {exc}")
        return op
    if record.get("text") != text or record.get("tie_label") not in (0, 1):
        op.problems.append("record lacks the sentence or a tie label")
    op.digest = sha256(stdout.encode())
    return op


def setup_op(runner: Runner, wl: Workload, data: Path, ckpt_dir: Path | None) -> Op:
    corpus = ["test_flipped.jsonl", "test_iid.jsonl"] if wl.fixture else ["train.jsonl", "valid.jsonl"]
    expected = sum(len(read_jsonl(data / name)) for name in corpus)
    wall, rss, code, stdout, err = runner.run(
        [sys.executable, "-c", SETUP_PROBE, str(data / "lexicon.csv"),
         str(ckpt_dir) if ckpt_dir else "-", *(str(data / name) for name in corpus)])
    op = Op("setup", "setup", wall, rss, code)
    if code != 0:
        op.problems.append(f"exit {code}: {err.strip()[-300:]}")
    elif stdout.strip() != str(expected):
        op.problems.append(f"loaded {stdout.strip()} examples, expected {expected}")
    return op


def check_repeats(ops: list[Op], store: dict[str, str]) -> None:
    """Equal keys must give byte-identical outputs, within the run and
    against earlier runs of the same code (``store``, updated in place)."""
    for op in ops:
        if not op.ok or not op.digest:
            continue
        seen = store.setdefault(op.key, op.digest)
        if seen != op.digest:
            op.problems.append(f"output differs from an earlier run with the same inputs ({op.key})")


def load_stores(path: Path) -> dict[str, dict[str, str]]:
    """Output digests of earlier runs, by source hash and backend."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

@dataclass
class Context:
    name: str
    wl: Workload
    seed: int
    runner: Runner
    data: Path
    sentences: list[str]
    fixture_dir: Path | None = None


def cycle(ctx: Context, index: int, trace_dir: Path | None = None, setup: list[Op] | None = None) -> list[Op]:
    """One closed-loop cycle.  With ``trace_dir`` every call runs twice,
    untraced and traced, and the traced op comes right after its twin.
    With ``setup`` a set-up probe runs before every SETUP_EVERY-th infer
    and is appended there."""
    r, wl, data, seed = ctx.runner, ctx.wl, ctx.data, ctx.seed
    ops: list[Op] = []

    def both(make, tag: str) -> Op:
        op = make(None)
        ops.append(op)
        if trace_dir is not None:
            ops.append(make(trace_dir / tag))
        return op

    ckpt_dir = ctx.fixture_dir
    if not wl.fixture:
        ckpt_dir = r.work / "run"
        both(lambda t: train_op(r, data, ckpt_dir if t is None else r.work / "run-traced",
                                wl.train_epochs, f"train/{ctx.name}/{seed}", trace=t), f"train{index}")
    n = index * wl.infers_per_cycle
    for e in range(wl.evals_per_cycle):
        both(lambda t: eval_op(r, data, ckpt_dir, r.work / ("eval" if t is None else "eval-traced"),
                               f"eval/{ctx.name}/{seed}", acceptance=wl.fixture, trace=t), f"eval{index}-{e}")
        for k in range(wl.infers_per_eval):
            if setup is not None and k % SETUP_EVERY == 0:
                setup.append(setup_op(r, wl, data, ctx.fixture_dir))
            text = ctx.sentences[n % len(ctx.sentences)]
            both(lambda t: infer_op(r, ckpt_dir, data / "lexicon.csv", text,
                                    f"infer/{ctx.name}/{seed}/{sha256(text.encode())[:16]}", trace=t),
                 f"infer{n}")
            n += 1
    return ops


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(ops: list[Op], setup: list[Op], fixture: Op | None) -> dict[str, float]:
    cycle_ops = [op for op in ops if op.ok]
    trains = [op for op in cycle_ops if op.kind == "train"] + ([fixture] if fixture and fixture.ok else [])
    evals = [op for op in cycle_ops if op.kind == "eval"]
    infer_ms = [op.wall_s * 1e3 for op in cycle_ops if op.kind == "infer"]
    return {
        "setup_s": _median([op.wall_s for op in setup if op.ok]),
        "train_examples_per_s": _median([op.examples / op.wall_s for op in trains]),
        "eval_examples_per_s": _median([op.examples / op.wall_s for op in evals]),
        "infer_ms_p50": _median(infer_ms),
        "infer_ms_p90": statistics.quantiles(infer_ms, n=10, method="inclusive")[8] if len(infer_ms) > 1 else 0.0,
        "peak_rss_mb": max((op.rss_mb for op in cycle_ops), default=0.0),
    }


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                     text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    return {
        "git_sha": git_sha,
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": 1,
    }


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name]
    start = time.monotonic()
    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, start + RUN_BUDGET_S)
    env = environment()
    # warm-up: fills the bytecode cache and reports the interpreter, numpy and kernel backend
    _, _, code, stdout, err = runner.run([sys.executable, "-c", ENV_PROBE])
    if code != 0:
        raise BenchError(f"cannot import cfdetox from {SRC}: {err.strip()[-500:]}")
    env.update(json.loads(stdout))

    data = make_inputs(runner, wl, seed)
    ctx = Context(name, wl, seed, runner, data, infer_sentences(data, wl.infers_per_cycle * 4))
    fixture = None
    if wl.fixture:
        fixture_data = runner.work / "fixture-data"
        gen(runner, fixture_data, FIXTURE_SEED, 4000, 1000)
        ctx.fixture_dir = runner.work / "fixture"
        fixture = train_op(runner, fixture_data, ctx.fixture_dir, None, f"fixture/{FIXTURE_SEED}")
        if not fixture.ok:
            raise BenchError(f"fixture training failed: {fixture.problems}")

    store_path = WORK / "digests.json"
    stores = load_stores(store_path)
    store = stores.setdefault(f"{env['src_sha256']}/{env['backend']}", {})
    setup: list[Op] = []
    ops: list[Op] = []
    probes: dict[str, list[Op]] = {}
    if traced:
        trace_dir = work / "spans"
        trace_dir.mkdir()
        ops = cycle(ctx, 0, trace_dir)
        if not wl.fixture:
            probe_data = subset_corpus(data, work / "probe-data", PROBE_EXAMPLES)
            for mode in MODES:
                probes[mode] = [train_op(runner, probe_data, work / f"probe-{mode}", 1,
                                         f"probe/{name}/{seed}/{mode}", mode, trace_dir / f"probe-{mode}")]
    else:
        t0 = time.monotonic()
        index = 0
        while index == 0 or time.monotonic() - t0 < seconds:
            ops += cycle(ctx, index, setup=setup)
            index += 1

    all_ops = ([fixture] if fixture else []) + setup + ops + [op for group in probes.values() for op in group]
    check_repeats(all_ops, store)
    store_path.write_text(json.dumps(stores, indent=1, sort_keys=True), encoding="utf-8")

    if traced:
        untraced, traced_ops = ops[0::2], ops[1::2]
        spans = [SpanFile.load(op.spans) for op in traced_ops if op.code == 0]
        probe_spans = {mode: [SpanFile.load(op.spans) for op in group if op.code == 0]
                       for mode, group in probes.items()}
        metrics = per_layer(spans, probe_spans, sum(op.wall_s for op in traced_ops),
                            sum(op.wall_s for op in untraced))
        units = {n: u for n, u, _ in PER_LAYER}
    else:
        metrics = end_to_end(ops, setup, fixture)
        units = {n: u for n, u, _ in END_TO_END}

    failed = [op for op in all_ops if not op.ok]
    if not failed:
        shutil.rmtree(work)  # kept only when something failed, for inspection
    quality = [op.quality for op in all_ops if op.quality]
    return {
        "summary": {
            "workload": name, "seed": seed, "trace": int(traced), "env": env,
            "ops": {kind: sum(1 for op in all_ops if op.kind == kind)
                    for kind in ("setup", "train", "eval", "infer")},
            "quality": quality[0] if quality else None,
            "peak_rss_mb_by_kind": {kind: max((op.rss_mb for op in all_ops if op.kind == kind), default=0.0)
                                    for kind in ("setup", "train", "eval", "infer")},
            "problems": [f"{op.kind} {op.key}: {p}" for op in failed for p in op.problems]
            + [f"{op.kind} {op.key}: exit {op.code}" for op in failed if not op.problems],
            "wall_s": time.monotonic() - start,
        },
        "result": {
            "correct": not failed,
            "attempted": len(all_ops),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0, help="measure cycles until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cfdetox" / "cli.py").is_file():
        print(f"error: no cfdetox sources at {SRC}", file=sys.stderr)
        return 2
    # turn SIGTERM into an exception so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
