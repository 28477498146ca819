"""mzembed benchmark: train, eval and library-search workloads through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --record-refs

Run it from the root of a checkout. Each run writes seeded synthetic inputs,
runs the set-up subcommands, then repeats the measured subcommand for S
seconds, each invocation in its own child process. Every invocation's
outputs are checked. With ``--trace 0`` the last stdout line reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
a traced run. ``--record-refs`` stores this commit's outputs for the seed as
the references later runs are checked against. README.md in this directory
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
REFS = os.path.join(HERE, "refs.json")

# Pinned before numpy loads here or in any child process.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
os.environ.update(
    {var: str(BLAS_THREADS) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
)
CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import kernel_cases  # noqa: E402
import metrics  # noqa: E402

SETUP_REPEATS = 5  # set-up runs per untraced run; setup_s is their median
MIN_COMMANDS = 3  # measured invocations per untraced run, at least
MIN_TRACED = 2  # traced and untraced invocations per traced run, at least
LAST_START_S = 110.0  # no invocation starts later than this into a run
RUN_LIMIT_S = 160.0  # an invocation still running at this point is killed
KERNEL_TRIALS = 200  # pairs per kernel case in traced runs
TOP_K = 10


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # the measured subcommand: train, eval or search
    structures: int
    spectra_per: int
    n_novel: int  # structures held out entirely
    n_known: int  # spectra held out from structures kept in train
    queries: int

    @property
    def setup_kinds(self) -> tuple[str, ...]:
        return ("prepare",) if self.command == "train" else ("prepare", "checkpoint")


# Why each workload exists is in BENCHMARK.json and README.md. Sizes are
# chosen so one measured invocation takes a few seconds on a 2-core machine
# and a training invocation stays near 2 GB.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-siamese", "train", 60, 4, 6, 24, 0),
        Workload("eval-siamese", "eval", 20, 4, 2, 8, 0),
        Workload("library-search", "search", 20, 4, 0, 0, 100),
    )
}


@dataclass
class Invocation:
    kind: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: str
    ok: bool
    message: str = ""


class Run:
    """One benchmark run: inputs, invocations, checks and their ledger."""

    def __init__(self, workload: Workload, seed: int, refs: dict | None, record: bool):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.work = os.path.join(STATE, "work", f"{workload.name}-{seed}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.out = os.path.join(self.work, "out")
        self.paths = inputs.write_dataset(
            os.path.join(self.work, "inputs"), seed, workload.structures,
            workload.spectra_per, workload.queries,
        )
        self.paths["config"] = os.path.join(self.work, "inputs", "run.cfg")
        inputs.write_config(self.paths["config"], {**inputs.CONFIG, "seed": seed})
        self.refs = refs or {}
        self.recorded: dict[str, dict] | None = {} if record else None
        self.invocations: list[Invocation] = []
        self.first: dict[str, dict] = {}
        self.library: set[str] = set()
        self.span_runs: list[dict] = []
        self.kernel_parity: str | None = None

    def argv(self, kind: str) -> list[str]:
        p = self.paths
        common = ["--config", p["config"], "--out-dir", self.out,
                  "--fingerprints", p["fingerprints"], "--properties", p["properties"]]
        w = self.workload
        return {
            "prepare": ["prepare", "--spectra", p["spectra"],
                        "--n-novel", str(w.n_novel), "--n-known", str(w.n_known)],
            "checkpoint": ["train", "--mode", "siamese", "--epochs", "0"],
            "train": ["train", "--mode", "siamese"],
            "eval": ["eval", "--mode", "siamese"],
            "search": ["search", "--mode", "siamese", "--queries", p.get("queries", ""),
                       "--k", str(TOP_K)],
        }[kind] + common

    def invoke(self, kind: str, traced: bool = False) -> Invocation:
        """Run one subcommand in a child process and check its outputs."""
        for name in checks.OUTPUTS[kind]:
            path = os.path.join(self.out, name)
            if os.path.exists(path):
                os.remove(path)
        run_id = f"{self.workload.name}/{self.seed}/{len(self.invocations)}-{kind}"
        spans_path = os.path.join(self.work, "spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, run_id, "--"]
        else:
            cmd = [sys.executable, "-m", "mzembed.cli"]
        stderr_path = os.path.join(self.work, "stderr.txt")
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        with open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd + self.argv(kind), cwd=self.work, env=CHILD_ENV,
                stdout=subprocess.DEVNULL, stderr=err,
            )
            timer = threading.Timer(max(remaining, 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(
            kind, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            _describe(status), ok=False,
        )
        if proc.returncode != 0:
            with open(stderr_path, "rb") as handle:
                inv.message = handle.read().decode("utf-8", "replace").strip()[-500:]
        else:
            try:
                self._check(kind)
                inv.ok = True
            except checks.CheckError as exc:
                inv.message = str(exc)
            except (ValueError, IndexError) as exc:  # an output that does not parse
                inv.message = f"{kind}: malformed output: {exc!r}"
        if traced and os.path.exists(spans_path):
            with open(spans_path, "r", encoding="utf-8") as handle:
                self.span_runs.append(json.load(handle))
            os.remove(spans_path)
        self.invocations.append(inv)
        return inv

    def _check(self, kind: str) -> None:
        snap = checks.snapshot(kind, self.out)
        if kind == "prepare":
            self.library = checks.train_ids(snap["split_manifest.tsv"])
        checks.check_invariants(kind, self.out, snap, TOP_K, self.library)
        if kind in self.first and self.first[kind] != snap:
            changed = sorted(n for n in snap if snap[n] != self.first[kind].get(n))
            raise checks.CheckError(f"{kind}: outputs differ between repeats: {changed}")
        self.first.setdefault(kind, snap)
        view = checks.reference_view(kind, snap)
        if self.recorded is not None:
            self.recorded.setdefault(kind, view)
        elif kind in self.refs:
            checks.compare_reference(kind, view, self.refs[kind])

    def setup(self) -> float:
        return sum(self.invoke(kind).wall_s for kind in self.workload.setup_kinds)

    def may_start(self) -> bool:
        return time.perf_counter() - self.started < LAST_START_S

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _describe(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"killed by signal {os.WTERMSIG(status)}"
    return f"exit {os.WEXITSTATUS(status)}"


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _walls(invocations: list[Invocation]) -> list[float]:
    good = [i.wall_s for i in invocations if i.ok]
    return good or [i.wall_s for i in invocations]


def measure(run: Run, seconds: float) -> dict[str, float]:
    """Untraced run: set-up repeats, then the measured command for `seconds`."""
    setups = [run.setup() for _ in range(SETUP_REPEATS)]
    run.invoke(run.workload.command)  # warm-up, checked but not timed
    commands: list[Invocation] = []
    begin = time.perf_counter()
    while run.may_start() and (
        len(commands) < MIN_COMMANDS or time.perf_counter() - begin < seconds
    ):
        commands.append(run.invoke(run.workload.command))
    ok = [i for i in commands if i.ok] or commands
    return {
        "setup_s": _median(setups),
        "command_s": _median(_walls(commands)),
        "peak_rss_mb": _median([i.rss_mb for i in ok]),
    }


def measure_traced(run: Run, seconds: float) -> dict[str, float]:
    """Traced run: one traced set-up, then untraced and traced commands in turn."""
    for kind in run.workload.setup_kinds:
        run.invoke(kind, traced=True)
    setup_spans = list(run.span_runs)
    run.invoke(run.workload.command)  # warm-up, checked but not timed
    plain: list[Invocation] = []
    traced: list[tuple[Invocation, dict]] = []
    begin = time.perf_counter()
    while run.may_start() and (
        len(traced) < MIN_TRACED or time.perf_counter() - begin < seconds
    ):
        plain.append(run.invoke(run.workload.command))
        if not run.may_start():
            break
        before = len(run.span_runs)
        inv = run.invoke(run.workload.command, traced=True)
        if len(run.span_runs) > before:
            traced.append((inv, run.span_runs[-1]))
    if not traced:
        raise RuntimeError("no traced invocation completed")
    traced.sort(key=lambda t: t[0].wall_s)
    median_inv, median_spans = traced[(len(traced) - 1) // 2]
    values = metrics.layer_metrics([r["spans"] for r in setup_spans + [median_spans]])
    untraced_s = _median(_walls(plain))
    traced_s = _median([i.wall_s for i, _ in traced])
    values["cli.command_s"] = median_inv.wall_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    kernel_values, run.kernel_parity = kernel_cases.run_cases(run.seed, KERNEL_TRIALS)
    values.update(kernel_values)
    return values


def unit_of(name: str) -> str:
    if name.endswith("rss_mb"):
        return "MB"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_s", ".s")) or "_s_p" in name or name.endswith("_s_max"):
        return "s"
    if name.endswith("frac"):
        return "ratio"
    return "count"


def run_metadata(workload: Workload, seed: int, trace: int) -> dict:
    """Where and on what a result was measured (schema mzembed-run/1)."""
    from mzembed.kernels import BACKEND

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    with open("/proc/meminfo", "r", encoding="utf-8") as handle:
        mem_kb = int(next(line for line in handle if line.startswith("MemTotal")).split()[1])
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "schema": "mzembed-run/1",
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "kernel_backend": BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": mem_kb // 1024,
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def record_refs(workload: Workload, seed: int) -> int:
    """Store this commit's outputs for (workload, seed) in refs.json."""
    run = Run(workload, seed, None, record=True)
    try:
        run.setup()
        run.invoke(workload.command)
    finally:
        run.close()
    bad = [i for i in run.invocations if not i.ok]
    if bad:
        print(f"not recorded, {bad[0].kind} failed: {bad[0].message}", file=sys.stderr)
        return 1
    refs = checks.load_refs(REFS)
    refs.setdefault(workload.name, {})[str(seed)] = run.recorded
    with open(REFS, "w", encoding="utf-8") as handle:
        json.dump(refs, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded references for {workload.name} seed {seed}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-refs", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mzembed", "cli.py")):
        print(f"error: no mzembed sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    compileall.compile_dir(SRC, quiet=1)
    workload = WORKLOADS[args.workload]
    if args.record_refs:
        return record_refs(workload, args.seed)

    refs = checks.load_refs(REFS).get(workload.name, {}).get(str(args.seed))
    run = Run(workload, args.seed, refs, record=False)
    try:
        measured = (measure_traced if args.trace else measure)(run, args.seconds)
    finally:
        run.close()
    failed = [i for i in run.invocations if not i.ok]
    result = {
        "correct": not failed and run.kernel_parity != "differ",
        "attempted": len(run.invocations),
        "failed": len(failed),
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in measured.items()},
    }
    report(run, args, result, measured)
    print(json.dumps(result))
    return 0


def report(run: Run, args, result: dict, measured: dict) -> None:
    """Print the metrics by name and keep the full record under .perfbench/."""
    w = run.workload
    named = {"error_rate": (result["failed"] / result["attempted"], "ratio")}
    if not args.trace:
        command_s = measured["command_s"]
        if w.command == "train":
            pairs = inputs.CONFIG["pairs-per-epoch"] * inputs.CONFIG["epochs"]
            named["train_pairs_per_s"] = (pairs / command_s, "1/s")
        elif w.command == "eval":
            named["eval_s"] = (command_s, "s")
        else:
            named["search_queries_per_s"] = (w.queries / command_s, "1/s")
    for name, entry in result["metrics"].items():
        print(f"{name:36s} {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in named.items():
        print(f"{name:36s} {value:.6g} {unit}")
    for inv in run.invocations:
        if not inv.ok:
            print(f"FAILED {inv.kind} ({inv.exit}): {inv.message}")
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    stem = os.path.join(STATE, "results", f"{w.name}-seed{args.seed}-trace{args.trace}")
    record = {
        "meta": run_metadata(w, args.seed, args.trace),
        "workload": {**vars(w), "config": inputs.CONFIG},
        "kernel_parity": run.kernel_parity,
        "references": "checked" if run.refs else "none recorded for this seed",
        "result": result,
        "named": {name: {"value": v, "unit": u} for name, (v, u) in named.items()},
        "invocations": [vars(i) for i in run.invocations],
    }
    if run.span_runs:
        record["self_s"] = _self_time_summary(run.span_runs)
        with open(stem + "-spans.json", "w", encoding="utf-8") as handle:
            json.dump({"runs": run.span_runs}, handle)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)


def _self_time_summary(span_runs: list[dict]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for r in span_runs:
        for span, own in zip(r["spans"], metrics.self_times(r["spans"])):
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


if __name__ == "__main__":
    sys.exit(main())
