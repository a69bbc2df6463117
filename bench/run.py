"""End-to-end and per-layer benchmark of the ``fixtrace`` command-line tool.

Usage (from the repository root)::

    python3 bench/run.py --workload homology-lefschetz --seed 1 \\
        --seconds 25 --trace 0

Each operation is one ``fixtrace`` command in a fresh child process
(``python -m fixtrace.cli ...``), run one at a time in a closed loop with a
single client, as a user runs the CLI.  The loop runs whole passes of the
workload's command mix until ``--seconds`` have passed, so every document
counts the same number of times whatever the seed's command order.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then traced passes, where each child loads
``bench/tracer.py`` before ``fixtrace.cli.main``, and prints the per-layer
metrics (totals per pass of the mix).

Every command's report is checked against an oracle derived by hand
(``workloads.py``), and every repeat of a document must print the same
bytes.  Once per invocation, outside the timed mix, every ``catalog emit``
document is run once and its verdicts are tallied.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
is a report with the environment, the sample counts, ``fail_ratio`` and
the catalog tally.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# Guards set in each child only.  The wall-clock limit is an alarm that
# survives exec; the address-space cap stops a runaway orbit search long
# before it can exhaust a shared machine.
CMD_TIMEOUT_S = 60
CMD_ADDRESS_SPACE = 2 << 30
# No invocation may run past this, whatever fails.
HARD_LIMIT_S = 150
SETUP_REPEATS = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def _rank(n: int, p: float) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), p) - 1]


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> Optional[float]:
    """Highest ladder percentile with at least ``beyond`` of n samples above
    its nearest rank, or None when n is too small for any."""
    for p in TAIL_LADDER:
        if n - _rank(n, p) >= beyond:
            return p
    return None


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------

@dataclass
class ChildResult:
    wall_s: float
    exit_code: Optional[int]  # None when killed by a signal
    signal: Optional[int]
    maxrss_mb: float
    stdout: bytes


def _guards(timeout_s: int):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS,
                           (CMD_ADDRESS_SPACE, CMD_ADDRESS_SPACE))
        signal.alarm(timeout_s)
    return apply


class Runner:
    """Spawns guarded children in a scratch directory and times them."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()

    def run(self, argv: List[str]) -> ChildResult:
        timeout = max(1, min(CMD_TIMEOUT_S, int(self.time_left())))
        out_path = self.work / "stdout"
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.DEVNULL, cwd=self.work,
                                    env=self.env,
                                    preexec_fn=_guards(timeout))
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return ChildResult(
            wall_s=wall,
            exit_code=os.WEXITSTATUS(status) if os.WIFEXITED(status) else None,
            signal=os.WTERMSIG(status) if os.WIFSIGNALED(status) else None,
            maxrss_mb=usage.ru_maxrss / 1024,
            stdout=out_path.read_bytes())

    def cli(self, command: str, doc_path: Path) -> ChildResult:
        return self.run([sys.executable, "-m", "fixtrace.cli", command,
                         str(doc_path)])

    def traced(self, command: str, doc_path: Path, spans_path: Path,
               command_id: str) -> ChildResult:
        return self.run([sys.executable, str(BENCH_DIR / "tracer.py"),
                         str(spans_path), command_id, command, str(doc_path)])


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    name: str
    group: str
    wall_s: float
    maxrss_mb: float
    error: Optional[str]


class Checker:
    """Oracle check plus byte-identity of every repeat of a document."""

    def __init__(self, workloads_mod):
        self.check_report = workloads_mod.check_report
        self.digests: Dict[str, str] = {}

    def __call__(self, cmd, res: ChildResult) -> Optional[str]:
        if res.signal is not None:
            return f"killed by signal {res.signal}"
        err = self.check_report(cmd, res.exit_code, res.stdout)
        if err is not None:
            return err
        digest = hashlib.sha256(res.stdout).hexdigest()
        if self.digests.setdefault(cmd.name, digest) != digest:
            return "stdout differs from an earlier run of the same document"
        return None


def measure_setup(runner: Runner) -> float:
    """Median wall time of a fresh child that only imports fixtrace.cli."""
    argv = [sys.executable, "-c", "import fixtrace.cli"]
    runner.run(argv)  # compiles bytecode once, as an installed package has
    return statistics.median(runner.run(argv).wall_s
                             for _ in range(SETUP_REPEATS))


def catalog_coverage(runner: Runner, workloads_mod) -> Dict:
    """Run every catalog document once with the command that reads it."""
    by_verdict: Dict[str, List[str]] = {}
    no_command = []
    for name, kind, doc in workloads_mod.catalog_documents():
        commands = workloads_mod.COVERAGE_COMMANDS[kind]
        if not commands:
            no_command.append(name)
            continue
        path = runner.work / f"catalog-{name}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        for command in commands:
            res = runner.cli(command, path)
            try:
                verdict = json.loads(res.stdout)["verdict"]
            except (ValueError, KeyError, TypeError):
                verdict = f"exit {res.exit_code}"
            by_verdict.setdefault(verdict, []).append(f"{command} {name}")
    total = sum(len(v) for v in by_verdict.values())
    decisive = sum(len(by_verdict.get(v, ())) for v in ("pass", "fail"))
    return {"commands": total, "decisive": decisive,
            "by_verdict": by_verdict, "no_command": no_command}


def write_documents(commands, work: Path) -> Dict[str, Path]:
    paths = {}
    for cmd in commands:
        path = work / f"{cmd.name}.json"
        path.write_text(json.dumps(cmd.document, indent=2) + "\n",
                        encoding="utf-8")
        paths[cmd.name] = path
    return paths


def run_passes(commands, paths, runner: Runner, checker: Checker,
               rng: random.Random, seconds: float, execute
               ) -> Tuple[List[Sample], int, float, bool]:
    """At least one whole pass, in seeded order, until ``seconds`` have
    passed.

    Returns (samples, passes, elapsed, complete); complete is False when the
    hard limit cut a pass short.
    """
    samples: List[Sample] = []
    passes = 0
    t0 = time.perf_counter()
    while passes == 0 or time.perf_counter() - t0 < seconds:
        order = list(commands)
        rng.shuffle(order)
        for cmd in order:
            if runner.time_left() <= 0:
                return samples, passes, time.perf_counter() - t0, False
            res = execute(cmd, paths[cmd.name], passes)
            samples.append(Sample(cmd.name, cmd.group, res.wall_s,
                                  res.maxrss_mb, checker(cmd, res)))
        passes += 1
    return samples, passes, time.perf_counter() - t0, True


def end_to_end(samples: List[Sample], elapsed: float, setup_s: float
               ) -> Tuple[Dict, Dict]:
    walls = [s.wall_s for s in samples]
    p = tail_percentile(len(walls))
    tail_p = p if p is not None else 50.0
    tail_p_rank = _rank(len(walls), tail_p)
    metrics = {
        "cmds_per_s": {"value": len(samples) / elapsed, "unit": "cmd/s"},
        "cmd_s_p50": {"value": statistics.median(walls), "unit": "s"},
        "cmd_s_tail": {"value": percentile(walls, tail_p), "unit": "s"},
        "peak_rss_mb": {"value": max(s.maxrss_mb for s in samples),
                        "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    detail = {"tail_percentile": tail_p,
              "tail_samples_beyond": len(walls) - tail_p_rank,
              "samples": len(walls)}
    return metrics, detail


def per_layer(tracer_mod, span_files: List[Path], passes: int,
              traced: List[Sample], untraced: List[Sample],
              catalog_build_s: float) -> Tuple[Dict, Dict]:
    """Per-layer metrics per pass, plus per-command checks from the trace."""
    total = tracer_mod.Summary()
    by_doc: Dict[str, object] = {}
    free_graph = tracer_mod.Summary()
    group_of = {s.name: s.group for s in traced}
    for path in span_files:
        dump = json.loads(path.read_text(encoding="utf-8"))
        total.add(dump)
        name = dump["command"].split(":", 1)[1]
        by_doc.setdefault(name, tracer_mod.Summary()).add(dump)
        if group_of.get(name) == "free-graph":
            free_graph.add(dump)
    values = tracer_mod.layer_metrics(total)
    units = {}
    for key, value in values.items():
        if key.endswith("_s"):
            units[key] = "s"
        elif key.endswith(("_ratio", "share")):
            units[key] = "ratio"
        else:
            units[key] = "count"
        if units[key] != "ratio":
            values[key] = value / passes
    values["catalog.build_s"] = catalog_build_s
    units["catalog.build_s"] = "s"
    values["trace.overhead_ratio"] = (
        statistics.median(s.wall_s for s in traced)
        / statistics.median(s.wall_s for s in untraced))
    units["trace.overhead_ratio"] = "ratio"
    metrics = {k: {"value": values[k], "unit": units[k]} for k in values}
    per_command = {}
    for name, summary in sorted(by_doc.items()):
        m = tracer_mod.layer_metrics(summary)
        runs = summary.calls["cli.main"] or 1
        per_command[name] = {
            "snf_calls": m["exactalg.snf_calls"] / runs,
            "total_space_calls": m["bundles.total_space_calls"] / runs,
            "lift_calls": m["reidemeister.lift_calls"] / runs,
            "exactalg_share": round(m["exactalg.share"], 4),
            "class_share": round(m["grouprings.class_share"], 4),
        }
    checks = {"per_command": per_command}
    if free_graph.calls["cli.main"]:
        checks["free_graph_class_share"] = tracer_mod.layer_metrics(
            free_graph)["grouprings.class_share"]
    return metrics, checks


def source_identity() -> Dict:
    """Git commit when the checkout has one, and a digest of the sources."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "fixtrace").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run(args, work: Path) -> Tuple[Dict, Dict]:
    import tracer as tracer_mod
    import workloads as workloads_mod

    deadline = time.perf_counter() + HARD_LIMIT_S
    runner = Runner(work, deadline)
    rng = random.Random(args.seed)
    t0 = time.perf_counter()
    commands = workloads_mod.WORKLOADS[args.workload](rng)
    catalog_build_s = time.perf_counter() - t0
    paths = write_documents(commands, work)
    coverage = catalog_coverage(runner, workloads_mod)
    checker = Checker(workloads_mod)

    def untraced(cmd, path, _):
        return runner.cli(cmd.command, path)

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              **source_identity(), "python": sys.version.split()[0],
              "nproc": os.cpu_count(), "mix_size": len(commands),
              "catalog_coverage": coverage}
    metrics: Dict = {}
    if args.trace == 0:
        setup_s = measure_setup(runner)
        samples, passes, elapsed, complete = run_passes(
            commands, paths, runner, checker, rng, args.seconds, untraced)
        if samples:
            metrics, detail = end_to_end(samples, elapsed, setup_s)
            report.update(detail)
    else:
        base, _, _, complete = run_passes(
            commands, paths, runner, checker, rng, 0, untraced)
        span_files: List[Path] = []

        def traced(cmd, path, pass_no):
            spans = work / f"spans-{len(span_files)}.json"
            span_files.append(spans)
            return runner.traced(cmd.command, path, spans,
                                 f"{pass_no}:{cmd.name}")

        samples, passes = [], 0
        if complete:
            samples, passes, _, complete = run_passes(
                commands, paths, runner, checker, rng,
                max(0.0, args.seconds - sum(s.wall_s for s in base)), traced)
        if complete:
            metrics, report["trace_checks"] = per_layer(
                tracer_mod, [p for p in span_files if p.is_file()], passes,
                samples, base, catalog_build_s)
        samples = base + samples
    failures = [(s.name, s.error) for s in samples if s.error]
    report.update(passes=passes, commands=len(samples),
                  fail_ratio={"value": len(failures) / max(1, len(samples)),
                              "unit": "ratio"},
                  failures=failures[:10], complete=complete)
    result = {"correct": complete and not failures,
              "attempted": len(samples), "failed": len(failures),
              "metrics": metrics}
    return report, result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fixtrace" / "cli.py").is_file():
        sys.stderr.write(f"error: no fixtrace sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as workloads_mod
    if args.workload not in workloads_mod.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads_mod.WORKLOADS)}\n")
        return 2
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        report, result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # kept while another run still uses it
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
