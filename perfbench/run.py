"""Benchmark of dimer_nm, end to end and per layer.

    python3 perfbench/run.py --workload memory_sweep --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing needs installing. Workloads are defined in
workloads.py and explained in README.md.

Each pass of a workload runs in a fresh child process, one at a time (a
closed loop with one client), through harness.run_experiment and
harness.write_outputs with the default environment. With --trace 0
passes run back to back while another one still fits in --seconds (at
least one), and the end-to-end metrics are medians over the passes.
Set-up time is the median over set-up-only children, half of them run
before the passes and half after, plus the passes. With --trace 1 one untraced and one traced pass run, and the
per-layer metrics come from the traced one.

Every operation's output is checked (checks.py) and the stepper parity
(parity.py) runs once per invocation. A failed check, a failed parity
comparison, and with --trace 1 a broken zero-call prediction or a span
that no longer exists, each make "correct" false and the exit code 1.
A results file with the machine, seed, resolved configs, per-pass
numbers and checks is written to perfbench/out/. The last stdout line is
the JSON summary.
"""

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import checks
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REF = os.path.join(HERE, "reference")
SETUP_SAMPLES = 20  # set-up-only children, half before and half after the passes
RUN_BUDGET_S = 170.0  # every child of one invocation must end by then


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(spec, deadline):
    """Run child.py; return (spawn-to-ready seconds, result dict or None)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, cwd=ROOT, env=_env(),
        bufsize=0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"child did not become ready: {line!r}")
        proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
    except (BenchError, subprocess.TimeoutExpired):
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    result = None
    if spec["mode"] == "pass":
        with open(spec["result_path"], encoding="utf-8") as fh:
            result = json.load(fh)
    return setup_s, result


def run_parity(deadline):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "parity.py")], cwd=ROOT, env=_env(),
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
        timeout=max(1.0, deadline - time.perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"parity check printed nothing (exit {proc.returncode})")
    return json.loads(lines[-1])


def _is_symmetric(config_text):
    cfg = dict(line.split("=", 1) for line in config_text.splitlines())
    return all(cfg[a] == cfg[b] for a, b in (
        ("omega1", "omega2"), ("Omega1", "Omega2"), ("g1", "g2"), ("kappa1", "kappa2")))


class Run:
    def __init__(self, workload, seed, deadline, record=False):
        self.exps = workloads.WORKLOADS[workload]
        self.f_values = workloads.f_values(workload, seed)
        self.record = record  # copy the CSVs into REF instead of comparing
        self.ref_dir = REF if seed == 0 and not record else None
        self.deadline = deadline
        self.work = os.path.join(OUT, f"work-{workload}-{seed}")
        self.setup_samples = []
        self.passes = []
        self.failures = {}
        self.attempted = 0
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)

    def spec(self, mode, trace=False, tag="x"):
        out_dir = os.path.join(self.work, tag)
        return {
            "mode": mode, "trace": trace, "src": SRC, "out_dir": out_dir,
            "result_path": os.path.join(self.work, f"{tag}.json"),
            "experiments": [
                {"label": e.label, "preset": e.preset,
                 "overrides": e.overrides(self.f_values[e.label])}
                for e in self.exps],
        }

    def setup_only(self, keep=True):
        setup_s, _ = spawn(self.spec("setup"), self.deadline)
        if keep:
            self.setup_samples.append(setup_s)

    def one_pass(self, trace=False):
        tag = f"pass{len(self.passes)}"
        spec = self.spec("pass", trace, tag)
        t0 = time.perf_counter()
        setup_s, res = spawn(spec, self.deadline)
        res["child_s"] = time.perf_counter() - t0
        self.setup_samples.append(setup_s)
        for exp in self.exps:
            self.attempted += exp.n_f
            failed = checks.check_experiment(
                exp, spec["out_dir"], self.ref_dir, res["errors"].get(exp.label),
                _is_symmetric(res["configs"][exp.label]))
            self.failures.update({f"{tag}:{op}": why for op, why in failed.items()})
            if self.record:
                os.makedirs(REF, exist_ok=True)
                name = checks.output_file(exp)[0]
                shutil.copyfile(os.path.join(spec["out_dir"], name), os.path.join(REF, name))
        shutil.rmtree(spec["out_dir"], ignore_errors=True)
        self.passes.append(res)
        return res

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, or None off Linux.

    The share of time the host stole from this virtual machine over a run
    is recorded next to the timings, as one sign of a busy host.
    """
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    ticks0 = cpu_ticks()
    deadline = start + RUN_BUDGET_S
    if not os.path.isfile(os.path.join(SRC, "dimer_nm", "__init__.py")):
        print(f"run.py: no dimer_nm sources under {SRC}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(kind)

    run = Run(args.workload, args.seed, deadline)
    try:
        run.setup_only(keep=False)  # byte-compiles and warms the file cache
        if args.trace:
            plain = run.one_pass()
            traced = run.one_pass(trace=True)
            report = traced["trace"]
            metrics, missing = layers.layer_metrics(
                report, traced["wall_s"], plain["wall_s"])
            zero, predictions = layers.zero_calls(report, args.workload)
        else:
            for _ in range(SETUP_SAMPLES // 2):
                run.setup_only()
            t_passes = time.perf_counter()
            while True:
                run.one_pass()
                per_pass = statistics.median(p["child_s"] for p in run.passes)
                if time.perf_counter() - t_passes + per_pass > args.seconds:
                    break
            for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2):
                run.setup_only()
            metrics = {
                "wall_s": statistics.median(p["wall_s"] for p in run.passes),
                "setup_s": statistics.median(run.setup_samples),
                "cpu_s": statistics.median(p["cpu_s"] for p in run.passes),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in run.passes),
                "ok_frac": 1.0 - len(run.failures) / run.attempted,
            }
        parity = run_parity(deadline)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"run.py: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        run.cleanup()
    if set(metrics) != set(units):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    parity_ok = "fail" not in (parity["backends"]["status"], parity["engines"]["status"])
    # a broken zero-call prediction or a renamed span fails the run, so a
    # bypass that stops holding cannot read as a quiet 0 s
    trace_ok = not args.trace or (
        not missing and all(s == "holds" for s in predictions.values()))
    correct = not run.failures and parity_ok and trace_ok
    ticks1 = cpu_ticks()
    steal_frac = None
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        steal_frac = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": run.passes[0]["machine"],
        "f_values": run.f_values,
        "configs": run.passes[0]["configs"],
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "child_s", "errors")}
                   for p in run.passes],
        "setup_samples_s": run.setup_samples,
        "attempted": run.attempted, "failures": run.failures,
        "parity": parity, "metrics": metrics, "correct": correct,
        "elapsed_s": time.perf_counter() - start,
        "steal_frac": steal_frac,
    }
    if args.trace:
        record.update(trace=report, zero_calls=zero, zero_call_predictions=predictions,
                      missing_spans=missing)
        print(f"{args.workload}: {len(zero)} of {len(report['stats'])} wrapped "
              "functions saw zero calls")
        for name in zero:
            print(f"  0 calls  {name}")
        for name in missing:
            print(f"  MISSING  {name}: no such public function; its metrics read 0")
        for pattern, status in predictions.items():
            print(f"  predicted zero: {pattern:<32} {status}")
        print(f"  trace.overhead_s = {metrics['trace.overhead_s']:.3f}")
    for op, why in sorted(run.failures.items()):
        print(f"FAILED {op}: {why}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if not parity_ok:
        print(f"FAILED parity: {json.dumps(parity)}")
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
