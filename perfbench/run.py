"""hopperlab benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Each repetition runs in a fresh child process (rep.py), one at a time, and
the program runs serially (jobs=1).  Repetitions continue until `--seconds`
are used, at least MIN_REPS of them.  Workloads, kept short (~1 s of work)
so that many repetitions fit in a run:

    sweep        `run_sweep` + `write_report` on the default config at the
                 middle stiffness, one seed: 4 hops and 150 intrusions
                 written to disk, then identify and report.  Simulator,
                 estimation and artifact writes all show here.
    closed_loop  the criterion-2 grid (7 conditions) in memory, one seed
                 per repetition, cycling through 5 seeds; criterion 2 is
                 judged on the pooled seeds.  Simulator and estimation
                 dominate; io does nothing.
    reanalyze    `hopperlab estimate`, `identify`, `report` on a sweep
                 corpus built (3 times, median reported) during set-up.
                 Reads, estimation and identification; no simulation.

`--seed n` shifts the seed list (n for sweep and reanalyze, n..n+4 for
closed_loop).  The program sees only the config generated from it.

With `--trace 0` the last stdout line holds the end-to-end metrics, medians
over the untraced repetitions; with `--trace 1` traced and untraced
repetitions alternate and it holds the per-layer metrics (medians over the
traced ones) and `trace.overhead_s`.  Names and units come from
BENCHMARK.json.  Times are seconds at a reference CPU speed (calibrate.py);
the lines before the result give raw times, quartiles, sample counts, the
verdict, accuracy and the environment.  `--grid tiny` shrinks every grid to
one condition for the smoke check (smoke.py).
"""

from __future__ import annotations

import argparse
import compileall
import configparser
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import verdicts

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "closed_loop", "reanalyze")
CLOSED_LOOP_SPEEDS = "0.2, 0.5, 0.8, 1.0, 1.2"
CLOSED_LOOP_SEEDS = 5
SWEEP_STIFFNESS = "3.75"
MIN_REPS = 3           # per kind (traced / untraced) and run
CORPUS_BUILDS = 3      # reanalyze set-up is repeated so its median is reported
DEADLINE_S = 170.0     # the whole run, children included, ends before 180 s


class BenchError(Exception):
    pass


def write_config(root: Path, workload: str, seed: int, grid: str, dest: Path) -> None:
    """The default config with the workload's grid and seed list."""
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    with open(root / "configs" / "default.ini", encoding="utf-8") as handle:
        parser.read_file(handle)
    sweep = parser["sweep"]
    if grid == "tiny":
        sweep.update(speeds="1.2", stiffnesses="3.75", seeds=str(seed),
                     intrusion_speed_count="2", intrusion_repeats="1")
    elif workload == "closed_loop":
        sweep.update(speeds=CLOSED_LOOP_SPEEDS, seeds=", ".join(map(str, closed_loop_seeds(seed, grid))))
    else:
        sweep.update(stiffnesses=SWEEP_STIFFNESS, seeds=str(seed))
    with open(dest, "w", encoding="utf-8") as handle:
        parser.write(handle)


def closed_loop_seeds(seed: int, grid: str) -> list[int]:
    return [seed] if grid == "tiny" else list(range(seed, seed + CLOSED_LOOP_SEEDS))


def environment(root: Path) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "src_sha256": src.hexdigest()[:16],
    }


def _git_commit(root: Path) -> str:
    """HEAD of the checkout's own .git, if it has one (read, not run)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts one child at a time and enforces the run's deadline."""

    def __init__(self, root: Path, work: Path, workload: str, config: Path, started: float):
        self.root, self.work, self.workload, self.config = root, work, workload, config
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        self.count = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def rep(self, workload: str, out: Path, traced: bool, index: int = 0, expect: Path | None = None) -> dict:
        """Run one repetition; returns its result, with ok=False on a crash."""
        self.count += 1
        result_path = self.work / f"result-{self.count}.json"
        cmd = [
            sys.executable, str(HERE / "rep.py"),
            "--workload", workload, "--config", str(self.config), "--out", str(out),
            "--result", str(result_path), "--trace", str(int(traced)), "--index", str(index),
        ]
        if expect is not None:
            cmd += ["--expect", str(expect)]
        cmd += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {"ok": False, "detail": "repetition timed out", "traced": traced}
        if proc.returncode != 0 or not result_path.exists():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
            print(f"repetition failed (exit {proc.returncode}):", *tail, sep="\n  ", file=sys.stderr)
            return {"ok": False, "detail": f"exit {proc.returncode}", "traced": traced}
        result = json.loads(result_path.read_text())
        result_path.unlink()
        return result

    def warm_up(self) -> None:
        """Compile bytecode and load the libraries once, untimed: users do
        not pay for either on every run."""
        compileall.compile_dir(self.root / "src", quiet=1)
        compileall.compile_dir(HERE, quiet=1)
        subprocess.run([sys.executable, "-c", "import hopperlab.cli"], env=self.env,
                       cwd=self.root, check=True, capture_output=True, timeout=120)


def build_corpus(runner: Runner) -> tuple[Path, Path, list[float], dict]:
    """Reanalyze set-up: sweep the config CORPUS_BUILDS times into the same
    directory; every build must reproduce the first byte for byte."""
    corpus = runner.work / "corpus"
    times, first = [], None
    for _ in range(CORPUS_BUILDS):
        if corpus.exists():
            shutil.rmtree(corpus)
        result = runner.rep("sweep", corpus, traced=False)
        if not result["ok"]:
            raise BenchError(f"corpus build failed: {result['detail']}")
        first = first or result
        if result["digest"] != first["digest"]:
            raise BenchError("corpus builds differ: the sweep is not deterministic")
        at_reference(result, {})
        times.append(result["setup_ref_s"] + result["wall_ref_s"])
    expect = runner.work / "corpus_digest.json"
    expect.write_text(json.dumps(first["digest"]))
    return corpus, expect, times, first


def measure(runner: Runner, seconds: float, trace: bool, min_total: int, corpus=None, expect=None) -> list[dict]:
    """Repetitions until `seconds` are used up: at least MIN_REPS of each
    kind (untraced, and traced when tracing) and min_total in all."""
    results: list[dict] = []
    begin = time.monotonic()
    while True:
        traced = trace and len(results) % 2 == 1
        out = corpus if corpus is not None else runner.work / "out"
        results.append(runner.rep(runner.workload, out, traced, len(results), expect))
        if corpus is None and out.exists():
            shutil.rmtree(out)
        kinds = [sum(1 for r in results if r["traced"] == k) for k in ({False, True} if trace else {False})]
        elapsed = time.monotonic() - begin
        typical = elapsed / len(results)
        if min(kinds) >= MIN_REPS and len(results) >= min_total and elapsed + typical > seconds:
            return results
        if runner.remaining() < 2.0 * typical:
            return results


def at_reference(result: dict, units: dict[str, str]) -> None:
    """Add the repetition's times scaled to the reference CPU speed."""
    result["cal_s"] = math.sqrt(result["cal_before"] * result["cal_after"])
    factor = calibrate.REFERENCE_S / result["cal_s"]
    result["wall_ref_s"] = result["wall_s"] * factor
    result["setup_ref_s"] = result["setup_s"] * calibrate.REFERENCE_S / result["cal_before"]
    if "layers" in result:
        scale = {"s": factor, "ms": factor, "us": factor, "MB/s": 1.0 / factor}
        result["layers_ref"] = {k: v * scale.get(units[k], 1.0) for k, v in result["layers"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--grid", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if args.seed < 0:
        print("seed must be >= 0", file=sys.stderr)
        return 2
    for needed in ("BENCHMARK.json", "src/hopperlab/__init__.py", "configs/default.ini"):
        if not (root / needed).is_file():
            print(f"not a hopperlab checkout: {root / needed} is missing", file=sys.stderr)
            return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = root / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        config = work / "config.ini"
        write_config(root, args.workload, args.seed, args.grid, config)
        runner = Runner(root, work, args.workload, config, started)
        runner.warm_up()
        corpus = expect = None
        corpus_times: list[float] = []
        build = None
        if args.workload == "reanalyze":
            corpus, expect, corpus_times, build = build_corpus(runner)
        seeds = closed_loop_seeds(args.seed, args.grid)
        min_total = len(seeds) if args.workload == "closed_loop" else 0
        results = measure(runner, args.seconds, bool(args.trace), min_total, corpus, expect)
        env = environment(root)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    passed = [r for r in results if r["ok"]]
    for r in passed:
        at_reference(r, units)
    failed = len(results) - len(passed)
    detail = next((r["detail"] for r in results if not r["ok"]), passed[0]["detail"] if passed else "")
    if args.workload == "closed_loop" and passed:
        # criterion 2 holds for the pool of seeds, not for one repetition
        pooled_ok, detail, acc = verdicts.pool_closed_loop(passed, seeds)
        for r in passed:
            r["accuracy"] = acc or {}
        if not pooled_ok:
            failed, passed = len(results), []
    if len({json.dumps(r["accuracy"], sort_keys=True) for r in passed}) > 1:
        detail += "; repetitions disagree on accuracy"
        failed, passed = len(results), []
    correct = failed == 0 and bool(passed)
    untraced = [r for r in passed if not r["traced"]]
    traced = [r for r in passed if r["traced"]]

    def med(rows, key):
        return quartiles([r[key] for r in rows])[1]

    values: dict[str, float] = {}
    if args.trace and traced and untraced:
        layers = [r["layers_ref"] for r in traced]
        values.update({name: med(layers, name) for name in layers[0]})
        values.update(passed[0]["accuracy"])
        values["io.output_bytes"] = passed[0]["output_bytes"]
        values["trace.wall_s"] = med(traced, "wall_ref_s")
        values["trace.overhead_s"] = values["trace.wall_s"] - med(untraced, "wall_ref_s")
        trace_file = root / ".perfbench" / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                                          "spans": traced[-1]["spans"]}))
    elif not args.trace and untraced:
        values["wall_s"] = med(untraced, "wall_ref_s")
        values["setup_s"] = med(untraced, "setup_ref_s") + (statistics.median(corpus_times) if corpus_times else 0.0)
        values["peak_rss_mb"] = med(untraced, "peak_rss_mb")

    print(f"workload={args.workload} seed={args.seed} grid={args.grid} trace={args.trace} "
          f"repetitions={len(results)} failed={failed} (untraced {len(untraced)}, traced {len(traced)})")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"times are seconds at the reference CPU speed: raw x {calibrate.REFERENCE_S} s / calibration_s")
    for label, rows in (("untraced", untraced), ("traced", traced)):
        for key, unit in (("wall_ref_s", "s"), ("wall_s", "s raw"), ("setup_ref_s", "s"), ("setup_s", "s raw"),
                          ("cal_s", "s"), ("peak_rss_mb", "MB")):
            if rows:
                q1, q2, q3 = quartiles([r[key] for r in rows])
                print(f"{label} {key}: median {q2:.4f} {unit} (p25 {q1:.4f}, p75 {q3:.4f}, n={len(rows)}); "
                      "each: " + " ".join(f"{r[key]:.4f}" for r in rows))
    if corpus_times:
        q1, q2, q3 = quartiles(corpus_times)
        print(f"corpus set-up: median {q2:.4f} s (p25 {q1:.4f}, p75 {q3:.4f}, n={len(corpus_times)}); "
              f"{build['detail']}")
    print(f"verdict {args.workload}: {'PASS' if correct else 'FAIL'} - {detail}")
    if passed:
        print(f"trials per repetition: {passed[0]['trials']}; output bytes: {passed[0]['output_bytes']}")
        print("accuracy " + " ".join(f"{k}={v:.6g}" for k, v in sorted(passed[0]["accuracy"].items())))
    for r in traced:
        self_sum = sum(v for k, v in r["layers"].items() if k.startswith("trace.self_"))
        print(f"traced repetition: layer self times sum to {self_sum:.4f} s of {r['wall_s']:.4f} s wall (raw)")

    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    missing = sorted(m["name"] for m in wanted if m["name"] not in values)
    if missing:
        print(f"metrics not produced: {missing}", file=sys.stderr)
        correct = False
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
