"""sirsql benchmark: one closed-loop workload over the dialect -> router -> SQLite pipeline.

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports sirsql from its src/.
One client issues one operation at a time (no threads) through the public
API: SirLayer.apply_source / SirLayer.query, a new SirLayer for a session
open, and `python -m sirsql.cli` for a CLI cold start.  Every kernel is a
file under .perfbench_tmp/ with the program's own SQLite settings (rollback
journal, synchronous=FULL, autocommit per DML statement).

--trace 0 prints the end-to-end metrics, measured with no instrumentation.
--trace 1 runs the loop untraced, then again with spans at the module
boundaries, and prints the per-layer metrics and the tracing overhead; the
spans go to .perfbench_out/.  Either way every result is checked against
the workload's model; the last line of stdout is the result object and the
line before it holds informational fields.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from spans import PLANNED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
CLI_TIMEOUT_S = 60
# Move to the next allowed CPU this often.  On a small shared machine one
# core can be slowed by other tenants for tens of seconds; rotating spreads
# every run over all cores instead of leaving it to wherever it started.
ROTATE_S = 0.2

# names the per-class figures carry in the info line
CLASS_FIGURES = {
    "point": ["point_p50_ms", "point_p99_ms"], "filter": ["filter_p50_ms"],
    "count": ["count_p50_ms"], "agg": ["agg_p50_ms"], "write": ["write_p50_ms"],
    "open": ["open_ms"], "cli": ["cli_cold_start_ms"], "create": ["create_p50_ms"],
    "alter": ["alter_cascade_p50_ms"],
}
RATE_FIGURES = {"scan": "scan_rows_per_s", "bulk_insert": "insert_rows_per_s"}


class CliFailed(Exception):
    pass


def import_program():
    """Import sirsql from this checkout's src/, and nowhere else."""
    if not (SRC / "sirsql" / "__init__.py").is_file():
        sys.exit(f"perfbench: no sirsql sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sirsql
    if SRC.resolve() not in Path(sirsql.__file__).resolve().parents:
        sys.exit(f"perfbench: sirsql was imported from {sirsql.__file__}, not {SRC}")
    return sirsql


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: a drift gauge, never a divisor."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


class CpuRotation:
    """Pins the process to one allowed CPU at a time, in turn."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.index = 0
        self.next_move = 0.0

    def tick(self):
        now = time.perf_counter()
        if len(self.cpus) > 1 and now >= self.next_move:
            self.index = (self.index + 1) % len(self.cpus)
            os.sched_setaffinity(0, {self.cpus[self.index]})
            self.next_move = now + ROTATE_S

    def release(self):
        os.sched_setaffinity(0, set(self.cpus))


class Bench:
    def __init__(self, sirsql, workload, tmp: Path):
        self.sirsql = sirsql
        self.workload = workload
        self.tmp = tmp
        self.kernel = None
        self.layer = None
        self.mismatches = []
        self.errors = []
        self.cli_runs = []
        self.tracer = None
        self.rotation = CpuRotation()

    # --- setup ---

    def setup(self, texts: list, repeats: int) -> list[float]:
        times = []
        for index in range(repeats):
            path = self.tmp / f"kernel{index}.sqlite"
            start = time.perf_counter()
            layer = self.sirsql.SirLayer(self.sirsql.KernelConnection(str(path)))
            elapsed = time.perf_counter() - start
            for text in texts:
                self.rotation.tick()
                start = time.perf_counter()
                layer.apply_source(text)
                elapsed += time.perf_counter() - start
            times.append(elapsed)
            if self.layer is not None:
                self.layer.conn.close()
                os.remove(self.kernel)
            self.layer, self.kernel = layer, str(path)
        return times

    # --- the closed loop ---

    def run_op(self, op):
        if op.kind == "query":
            return self.layer.query(op.text)
        if op.kind == "apply":
            return self.layer.apply_source(op.text)
        if op.kind == "open":
            return self.sirsql.SirLayer(self.sirsql.KernelConnection(self.kernel))
        if op.kind == "cli":
            return self.run_cli(op.text.split())
        raise ValueError(f"unknown operation kind {op.kind!r}")

    def run_cli(self, argv):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        if self.tracer is None:
            command = [sys.executable, "-m", "sirsql.cli"]
        else:
            command = [sys.executable, str(HERE / "cli_probe.py")]
        proc = subprocess.run(command + ["-k", self.kernel] + argv, env=env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            raise CliFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if self.tracer is not None:
            self.cli_runs.append(json.loads(proc.stderr.strip().splitlines()[-1]))
        return proc.stdout

    def loop(self, ops, seconds: float) -> dict:
        """Run operations until `seconds` have passed; per-class samples."""
        stats = {}
        texts = []
        attempted = failed = 0
        tracer = self.tracer
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            op = next(ops)
            attempted += 1
            self.rotation.tick()
            if tracer:
                tracer.begin_op(op.cls, op.text[:6].upper() in PLANNED)
            start = time.perf_counter()
            try:
                result = self.run_op(op)
            except (self.sirsql.SirSqlError, CliFailed, subprocess.TimeoutExpired) as exc:
                failed += 1
                self.errors.append(f"{op.cls}: {op.text[:120]}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.end_op()
            cls = stats.setdefault(op.cls, {"times": [], "rows": 0})
            cls["times"].append(elapsed)
            cls["rows"] += rows_of(result)
            texts.append(op.text)
            if op.kind == "open":
                self.layer.conn.close()
                self.layer = result
            self.check(op, result)
            result = None   # a large result must not stay alive through the next operation
        return {"stats": stats, "texts": texts, "attempted": attempted, "failed": failed}

    def check(self, op, result):
        if self.tracer:
            self.tracer.active = False
        try:
            problem = op.check(result)
            if problem:
                self.mismatches.append(f"{op.cls}: {op.text[:120]}: {problem}")
            for query, check in op.followups:
                problem = check(self.layer.query(query))
                if problem:
                    self.mismatches.append(f"{op.cls} then {query}: {problem}")
        except self.sirsql.SirSqlError as exc:
            self.mismatches.append(f"{op.cls}: check could not run: {exc}")
        finally:
            if self.tracer:
                self.tracer.active = True

    def final_checks(self):
        for query, check in self.workload.final_checks:
            try:
                problem = check(self.layer.query(query))
            except self.sirsql.SirSqlError as exc:
                problem = f"raised {exc}"
            if problem:
                self.mismatches.append(f"{query}: {problem}")

    def query_plans(self) -> dict:
        """EXPLAIN QUERY PLAN of the first planned kernel SQL of each class."""
        plans = {}
        with closing(sqlite3.connect(self.kernel)) as raw:
            for cls, sql in sorted(self.tracer.first_sql.items()):
                try:
                    rows = raw.execute("EXPLAIN QUERY PLAN " + sql).fetchall()
                    plans[cls] = {"sql": sql[:300], "plan": [row[3] for row in rows]}
                except sqlite3.Error as exc:
                    plans[cls] = {"sql": sql[:300], "error": str(exc)}
        return plans


def rows_of(result) -> int:
    if hasattr(result, "rows"):
        return len(result.rows)
    if isinstance(result, list):
        return sum(r.rowcount or 0 for r in result)
    return 0


def class_figures(stats: dict) -> dict:
    out = {}
    for cls, s in sorted(stats.items()):
        times = sorted(t * 1000 for t in s["times"])
        n = len(times)
        figure = {"n": n, "min_ms": times[0], "p10_ms": percentile(times, 0.1),
                  "p50_ms": statistics.median(times), "mean_ms": sum(times) / n}
        # the highest percentile with at least ten samples beyond it
        for label, q in (("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)):
            if n * (1 - q) >= 10:
                figure[f"{label}_ms"] = percentile(times, q)
                break
        if s["rows"]:
            figure["rows_per_s"] = s["rows"] / (sum(times) / 1000)
        out[cls] = figure
    return out


def issue_figures(figures: dict) -> dict:
    """The per-workload metrics under their descriptive names, with sample counts."""
    out = {}
    for cls, names in CLASS_FIGURES.items():
        if cls not in figures:
            continue
        f = figures[cls]
        for name in names:
            key = "p99_ms" if name.endswith("_p99_ms") else "p50_ms"
            if key in f:
                out[name] = {"value": f[key], "unit": "ms", "n": f["n"]}
    for cls, name in RATE_FIGURES.items():
        if cls in figures and "rows_per_s" in figures[cls]:
            out[name] = {"value": figures[cls]["rows_per_s"], "unit": "rows/s",
                         "n": figures[cls]["n"]}
    return out


def weighted_time(stats: dict, means: dict) -> float:
    """Time the traced run's operations would take at the given class means."""
    return sum(len(s["times"]) * means[cls] for cls, s in stats.items() if cls in means)


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    sirsql = import_program()
    calibration_start = calibrate()
    workload = WORKLOADS[args.workload](args.seed)
    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    bench = Bench(sirsql, workload, tmp)
    try:
        texts = workload.setup_texts()
        # keep the collector's passes off the benchmark's own model and text
        gc.collect()
        gc.freeze()
        setup_times = bench.setup(texts, 1 if args.trace else SETUP_REPEATS)
        del texts
        bench.final_checks()
        kernel_bytes = os.path.getsize(bench.kernel)
        with closing(sqlite3.connect(bench.kernel)) as raw:
            cache_pages = raw.execute("PRAGMA cache_size").fetchone()[0]
            page_size = raw.execute("PRAGMA page_size").fetchone()[0]
        page_cache_bytes = -cache_pages * 1024 if cache_pages < 0 else cache_pages * page_size
        relations = len(bench.layer.catalog.entries())

        ops = workload.ops()
        run = bench.loop(ops, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced = plans = None
        if args.trace:
            bench.tracer = Tracer()
            bench.tracer.install()
            bench.tracer.watch(bench.layer.conn)
            try:
                traced = bench.loop(ops, args.seconds)
            finally:
                bench.tracer.uninstall(bench.layer.conn)
            plans = bench.query_plans()
        bench.final_checks()
        calibration_end = calibrate()
    finally:
        bench.rotation.release()
        if bench.layer is not None:
            bench.layer.conn.close()
        shutil.rmtree(tmp, ignore_errors=True)

    stats = run["stats"]
    times = [t for s in stats.values() for t in s["times"]]
    figures = class_figures(stats)
    primary, secondary = workload.primary, workload.secondary
    attempted, failed = run["attempted"], run["failed"]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines(), "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "calibration_ms": {"start": calibration_start, "end": calibration_end},
        "inputs": {
            "repeated_text_share": 1 - len(set(run["texts"])) / max(1, len(run["texts"])),
            "kernel_file_bytes": kernel_bytes, "page_cache_bytes": page_cache_bytes,
            "relations": relations},
        "setup_runs_s": setup_times,
        "failed_share": failed / attempted,
        "stmts_per_s": len(times) / sum(times),
        "classes": figures,
        "figures": issue_figures(figures),
        "primary_class": primary, "secondary_class": secondary,
        "errors": bench.errors[:5], "mismatches": bench.mismatches[:5],
    }
    if args.trace:
        tracer = bench.tracer
        layer_metrics, breakdown = tracer.layer_metrics(bench.cli_runs)
        untraced_means = {cls: sum(s["times"]) / len(s["times"]) for cls, s in stats.items()}
        traced_total = sum(t for s in traced["stats"].values() for t in s["times"])
        layer_metrics["trace.overhead_share"] = (
            traced_total / weighted_time(traced["stats"], untraced_means) - 1, "share")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer_metrics.items()}
        info["layer_self_ms_by_class"] = breakdown
        info["query_plans"] = plans
        info["traced_classes"] = class_figures(traced["stats"])
        attempted += traced["attempted"]
        failed += traced["failed"]
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"{args.workload}-seed{args.seed}-spans.jsonl.gz")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "primary_min_ms": {"value": figures[primary]["min_ms"], "unit": "ms"},
            "secondary_min_ms": {"value": figures[secondary]["min_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    for line in bench.errors[:5] + bench.mismatches[:5]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not bench.mismatches, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
