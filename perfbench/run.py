#!/usr/bin/env python3
"""Benchmark of the dedsid DMDc pipeline on the demo, long and stream workloads.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 15 --trace 0

Builds nothing: it runs the sources under ``src/`` of the checkout that holds
it. One process generates all load and runs one operation at a time. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run instead. See README.md in this directory for the workloads, the
metrics and reference figures.
"""

from __future__ import annotations

import os

# The BLAS thread count is fixed before numpy loads, here and in every child.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

# Set-ups per run; setup_s is their median. The cheaper a set-up, the more
# of them, so that each median rests on several seconds of set-up.
SETUPS = {"demo": 11, "long": 7, "stream": 3}
SEED_STRIDE = 1000  # synth seeds tried for --seed N: 1000 N, 1000 N + 1, ...
MAX_CANDIDATES = 200


@dataclass(frozen=True)
class CorpusWorkload:
    """A ``dedsid synth`` corpus and the commands one operation runs on it.

    The synth seed is the first one derived from ``--seed`` whose corpus has
    ``rows`` rows to within ``tolerance``, so that the seed changes what is
    in the corpus but not how much work it makes.
    """

    experiments: int
    rate_hz: float
    rows: int
    tolerance: float
    commands: tuple[str, ...]


WORKLOADS = {
    "demo": CorpusWorkload(8, 100.0, 24_000, 0.025, ("pipeline", "freq-study")),
    "long": CorpusWorkload(6, 500.0, 90_000, 0.04, ("pipeline",)),
    "stream": None,
}


def declared_units(kind: str) -> dict[str, str]:
    """Name and unit of each ``end_to_end`` or ``per_layer`` metric in BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[kind]}


def info(tag: str, payload) -> None:
    print(f"{tag} {json.dumps(payload)}", flush=True)


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    stdout: str

    def result(self) -> dict:
        return json.loads(self.stdout.strip().splitlines()[-1])


def run(argv: list[str], log: Path) -> Proc:
    """Run one child to its end; wall time from its start, CPU and peak RSS
    from its own resource usage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read().decode()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log.read_text().strip().splitlines()[-3:]
        info("child-failed", {"argv": argv[1:], "rc": proc.returncode, "stderr": tail})
    return Proc(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        ok=proc.returncode == 0,
        stdout=out,
    )


def tree_hash(root: Path) -> str | None:
    if not root.is_dir():
        return None
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file()) if root.is_dir() else 0


@dataclass
class Round:
    ok: bool
    op_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    detail: dict = field(default_factory=dict)  # per-command seconds, or stream costs
    out_hash: str | None = None
    layers: dict = field(default_factory=dict)


class Bench:
    def __init__(self, workload: str, seed: int):
        self.spec = WORKLOADS[workload]
        self.setups = SETUPS[workload]
        self.seed = seed
        self.work = WORK / workload
        self.corpus = self.work / "corpus"
        self.record = self.work / "record.npz"
        self.spans = self.work / "spans.json"
        self.log = self.work / "child.log"
        self.fails: list[str] = []  # check failures; any makes the run incorrect
        self.first_hash: str | None = None
        self.first_fails: list[str] = []

    # -- processes ---------------------------------------------------------

    def dedsid(self, args: list[str], traced: bool) -> tuple[Proc, dict]:
        if traced:
            argv = [sys.executable, str(WORKER), "cli", "--trace", str(self.spans), "--", *args]
        else:
            argv = [sys.executable, "-m", "dedsid.cli", *args]
        return self._spanned(argv, traced)

    def worker(self, args: list[str], traced: bool) -> tuple[Proc, dict]:
        if traced:
            args = [*args, "--trace", str(self.spans)]
        return self._spanned([sys.executable, str(WORKER), *args], traced)

    def _spanned(self, argv: list[str], traced: bool) -> tuple[Proc, dict]:
        self.spans.unlink(missing_ok=True)
        proc = run(argv, self.log)
        totals = {}
        if traced and self.spans.exists():
            totals = spans.span_totals(spans.load_spans(self.spans))
        return proc, totals

    # -- set-up --------------------------------------------------------------

    def pick_synth_seed(self) -> tuple[int, int]:
        sys.path.insert(0, str(SRC))
        from dedsid.plant import make_demo_experiments

        spec = self.spec
        for j in range(MAX_CANDIDATES):
            candidate = self.seed * SEED_STRIDE + j
            _, datasets = make_demo_experiments(spec.experiments, candidate, spec.rate_hz)
            rows = sum(ds.row_count for ds in datasets)
            if abs(rows / spec.rows - 1.0) <= spec.tolerance:
                return candidate, rows
        raise SystemExit(f"no synth seed within {MAX_CANDIDATES} candidates fits the size")

    def setup(self, traced: bool) -> tuple[list[float], list[dict]]:
        times, layer_parts, hashes = [], [], []
        if self.spec is None:
            args = ["stream-setup", "--seed", str(self.seed), "--record", str(self.record)]
            for _ in range(self.setups):
                proc, totals = self.worker(args, traced)
                if not proc.ok:
                    raise SystemExit("stream set-up failed")
                res = proc.result()
                times.append(res["setup_s"])
                layer_parts.append(totals)
            info("inputs", {"seed": self.seed, "q": res["q"], "p": res["p"], "steps": res["steps"]})
            return times, layer_parts

        synth_seed, rows = self.pick_synth_seed()
        spec = self.spec
        args = ["synth", "--out", str(self.corpus), "--experiments", str(spec.experiments),
                "--seed", str(synth_seed), "--rate", f"{spec.rate_hz:g}"]
        for _ in range(self.setups):
            shutil.rmtree(self.corpus, ignore_errors=True)
            proc, totals = self.dedsid(args, traced)
            if not proc.ok:
                raise SystemExit("dedsid synth failed")
            times.append(proc.wall_s)
            layer_parts.append(totals)
            hashes.append(tree_hash(self.corpus))
        if len(set(hashes)) != 1:
            self.fails.append("dedsid synth wrote different corpora for one seed")
        info("inputs", {"synth_seed": synth_seed, "experiments": spec.experiments,
                        "rate_hz": spec.rate_hz, "rows": rows,
                        "csv_mb": round(tree_bytes(self.corpus) / 1e6, 2)})
        return times, layer_parts

    # -- one operation -------------------------------------------------------

    def operation(self, traced: bool) -> Round:
        rnd = Round(ok=True, layers={"cli.artifact_bytes": 0})
        if self.spec is None:
            self.stream_pass(rnd, traced)
            return rnd
        out = self.corpus / "out"
        shutil.rmtree(out, ignore_errors=True)
        config = str(self.corpus / "config.json")
        for command in self.spec.commands:
            proc, totals = self.dedsid([command, "--config", config], traced)
            rnd.layers = spans.add_totals([rnd.layers, totals])
            rnd.ok &= proc.ok
            rnd.op_s += proc.wall_s
            rnd.cpu_s += proc.cpu_s
            rnd.rss_mb = max(rnd.rss_mb, proc.rss_mb)
            rnd.detail[command] = proc.wall_s
        rnd.out_hash = tree_hash(out)
        rnd.layers["cli.artifact_bytes"] = tree_bytes(out)
        if rnd.ok:
            self.judge_outputs(rnd)
        return rnd

    def stream_pass(self, rnd: Round, traced: bool) -> None:
        proc, rnd.layers = self.worker(["stream", "--record", str(self.record)], traced)
        rnd.layers["cli.artifact_bytes"] = 0
        if not proc.ok:
            rnd.ok = False
            return
        res = proc.result()
        fails = checks.check_stream(res)
        self.fails.extend(fails)
        rnd.ok = not fails
        rnd.op_s = res["fit_s"] + res["rollout_s"]
        rnd.cpu_s = res["cpu_s"]
        rnd.rss_mb = proc.rss_mb
        rnd.detail = {
            "fit_us_per_pt": res["fit_s"] / res["pairs"] * 1e6,
            "rollout_us_per_pt": res["rollout_s"] / res["steps"] * 1e6,
        }

    def judge_outputs(self, rnd: Round) -> None:
        """Check the first round's out/ tree; every later tree must equal it."""
        if self.first_hash is None:
            self.first_hash = rnd.out_hash
            self.first_fails = checks.check_corpus_round(
                self.corpus, self.corpus / "out", "freq-study" in self.spec.commands
            )
            self.fails.extend(self.first_fails)
        elif rnd.out_hash != self.first_hash:
            self.fails.append("out/ differs from the run's first round")
            rnd.ok = False
        rnd.ok &= not self.first_fails


def host() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "dedsid" / "cli.py").is_file():
        print(f"error: no dedsid sources under {SRC}", file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed)
    shutil.rmtree(bench.work, ignore_errors=True)
    bench.work.mkdir(parents=True)
    info("host", host())

    setup_times, setup_layers = bench.setup(traced=bool(args.trace))
    info("setup_s", setup_times)

    # A traced run alternates an untraced and a traced operation. The first,
    # untraced out/ tree is the one every traced operation must reproduce,
    # and the pairs give the tracing overhead.
    modes = (False, True) if args.trace else (False,)
    rounds: list[Round] = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < args.seconds:
        for traced in modes:
            rounds.append(bench.operation(traced))
            info("round", {"traced": traced, "ok": rounds[-1].ok, "op_s": rounds[-1].op_s,
                           **rounds[-1].detail})
    for fail in dict.fromkeys(bench.fails):
        info("check-failed", fail)

    # Failed operations are left out of the metrics, unless all failed.
    if args.trace:
        pairs = list(zip(rounds[0::2], rounds[1::2]))
        diffs = [t.op_s - u.op_s for u, t in pairs if u.ok and t.ok]
        info("trace-overhead-s", {"pairs": len(diffs),
                                  "median_traced_minus_untraced_s": statistics.median(diffs)
                                  if diffs else None})
        traced_rounds = [t for _, t in pairs if t.ok] or [t for _, t in pairs]
        values = spans.layer_metrics(setup_layers, [r.layers for r in traced_rounds])
        units = declared_units("per_layer")
    else:
        measured = [r for r in rounds if r.ok] or rounds
        values = {
            "setup_s": statistics.median(setup_times),
            "op_s": statistics.median(r.op_s for r in measured),
            "cpu_s": statistics.median(r.cpu_s for r in measured),
            "peak_rss_mb": statistics.median(r.rss_mb for r in measured),
        }
        units = declared_units("end_to_end")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({
        "correct": not bench.fails,
        "attempted": len(rounds),
        "failed": sum(not r.ok for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
