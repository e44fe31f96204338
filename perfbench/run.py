"""Layered benchmark for biops: end-to-end metrics per workload, per-layer
metrics from a separate traced run, and an exact answer gate.

    python3 perfbench/run.py --workload tasep|algebra|session|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from `src/` next to this
directory.  One client sends one request at a time (a closed loop).
`tasep` and `algebra` run each request as a fresh `python -m biops.cli`
process; `session` sends library calls to one warm worker process.  See
perfbench/README.md for the metrics and what each should move.

The last line of stdout is one JSON object {"correct", "attempted",
"failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones,
with --trace 1 the per-layer ones.  Exit status 1 means some answer failed
the gate, 2 that the package or the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calib
import decks
import gate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

E2E = [
    ("setup_s", "s"), ("latency_p50_s", "s"), ("latency_p90_s", "s"),
    ("throughput_rps", "1/s"), ("cpu_p50_s", "s"), ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("asep.oracle_s", "s"), ("asep.generator_s", "s"), ("asep.mpa_s", "s"),
    ("asep.states", "count"),
    ("tensor.linear_form_s", "s"), ("tensor.normal_order_s", "s"),
    ("tensor.shock_mul_s", "s"), ("tensor.words_in", "count"),
    ("ring.self_s", "s"), ("ring.poly_mul_calls", "count"),
    ("ring.poly_div_calls", "count"), ("ring.kappa_mul_calls", "count"),
    ("ring.eval_calls", "count"),
    ("bimoment.det_s", "s"), ("bimoment.det_calls", "count"),
    ("biortho.cramer_s", "s"), ("biortho.check_s", "s"),
    ("matrep.represent_s", "s"), ("matrep.cheb_s", "s"),
    ("checks.self_s", "s"),
    ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("expr.parse_s", "s"), ("expr.eval_s", "s"),
    ("tensor.self_s", "s"), ("bimoment.self_s", "s"),
    ("biortho.self_s", "s"), ("matrep.self_s", "s"), ("asep.self_s", "s"),
    ("expr.self_s", "s"),
    ("trace.request_s", "s"), ("trace.requests", "count"),
    ("trace.overhead_ratio", "ratio"),
]

# Set-up samples taken (before, after) the timed loop, so that they span it.
# Session workers all start before the loop: a process started by run.py
# after it has filled with answers would report run.py's peak RSS as its own.
SETUP_SAMPLES = {"tasep": (5, 4), "algebra": (5, 4), "session": (5, 0)}
TRACEBACK = b"Traceback (most recent call last)"
MIN_SAMPLES = 100
# The host-speed probe runs before a request once this long has passed
# since the last probe, so probes sample the whole run evenly.
PROBE_EVERY_S = 0.25


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("BIOPS_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Outcome(NamedTuple):
    fail: str | None  # set when the request failed before its output was read
    out: object       # CLI stdout bytes, or the session worker's answer
    wall: float
    cpu: float
    rss_kb: int
    trace: object     # this request's span dump, or None


class LineProcess:
    """A helper process that answers each JSON line on its stdin with one
    JSON line on its stdout."""

    def __init__(self, script, *args):
        self.name = script
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / script), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=ENV, cwd=ROOT)

    def call(self, msg):
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.name} exited")
        return json.loads(line)

    def close(self):
        """Stop the process; return its peak RSS in KB."""
        try:
            self.proc.stdin.close()
        except BrokenPipeError:  # it has already exited
            pass
        self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, ru = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return ru.ru_maxrss


class Launcher(LineProcess):
    """launcher.py: runs `python args...` to completion from a small
    process, so that the child's peak RSS is its own."""

    def __init__(self):
        super().__init__("launcher.py")

    def run(self, args, out_path, err_path):
        """Return (exit code, wall seconds spawn to exit, user+sys CPU
        seconds, peak RSS in KB), all from os.wait4 on the child."""
        r = self.call({"args": args, "out": str(out_path),
                       "err": str(err_path)})
        return r["rc"], r["wall"], r["cpu"], r["rss_kb"]


class Probe(LineProcess):
    """calib.py: times the fixed host-speed kernel on request."""

    def __init__(self):
        super().__init__("calib.py")
        self.samples = []
        self.last = None

    def due(self):
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        now = time.perf_counter()
        if self.last is None or now - self.last >= PROBE_EVERY_S:
            self.samples.append(self.call({}))
            self.last = time.perf_counter()

    def speed(self):
        """The run's host speed: the 10th percentile of the probe times,
        which like the best-of-group request times leaves out the moments
        when the host ran the process slowly."""
        if len(self.samples) == 1:
            return self.samples[0]
        return statistics.quantiles(self.samples, n=10, method="inclusive")[0]

    def scale(self):
        """Factor that turns this run's seconds into reference seconds."""
        return calib.REFERENCE_S / self.speed()


class CliRunner:
    """Each request is a fresh `python -m biops.cli` process (cold state)."""

    def __init__(self, launcher, work=WORK):
        work.mkdir(parents=True, exist_ok=True)
        self.launcher = launcher
        self.out, self.err = work / "stdout", work / "stderr"
        self.trace_path = work / "spans.json"

    def setup_samples(self, count):
        """Wall seconds from a fresh interpreter to `biops.cli` imported."""
        import_cli = ["-c", "import biops.cli"]
        self.launcher.run(import_cli, self.out, self.err)  # bytecode
        samples = []
        for _ in range(count):
            rc, wall, _, _ = self.launcher.run(import_cli, self.out, self.err)
            if rc:
                raise RuntimeError(self.err.read_text())
            samples.append(wall)
        return samples

    def run(self, req, rid, traced):
        if traced:
            args = [str(HERE / "cli_child.py"), str(self.trace_path), str(rid)]
            self.trace_path.unlink(missing_ok=True)
        else:
            args = ["-m", "biops.cli"]
        rc, wall, cpu, rss = self.launcher.run(args + list(req.payload),
                                               self.out, self.err)
        trace = None
        if traced and self.trace_path.exists():
            trace = self.trace_path.read_bytes()
        fail = None
        if rc:
            fail = f"exit status {rc}"
        elif TRACEBACK in self.err.read_bytes():
            fail = "traceback on stderr"
        return Outcome(fail, self.out.read_bytes(), wall, cpu, rss, trace)

    def close(self):
        return 0


class Worker(LineProcess):
    """One session worker process (session_worker.py)."""

    def __init__(self, trace_path=None):
        super().__init__("session_worker.py",
                         *(["--trace", str(trace_path)] if trace_path else []))
        self.trace_path = trace_path
        self.next_id = 0

    def request(self, payload):
        self.next_id += 1
        return self.call(dict(payload, id=self.next_id))

    def warm_up(self):
        for payload in decks.session_warmup() + [{"kind": "gc_freeze"}]:
            reply = self.request(payload)
            if "error" in reply:
                raise RuntimeError("warm-up failed:\n" + reply["error"])


class SessionRunner:
    """Warm workers: one untraced, plus one traced worker for --trace 1."""

    def __init__(self, trace):
        self.trace_path = WORK / "session_spans.json" if trace else None
        self.plain = self.traced = None
        self.rss_kb = 0

    def setup_samples(self, count):
        """Wall seconds from spawn to import plus warm-up done, per worker;
        the last worker started stays up for the timed loop."""
        samples = []
        for _ in range(count):
            if self.plain:
                self.rss_kb = max(self.rss_kb, self.plain.close())
            t0 = time.perf_counter()
            self.plain = Worker()
            self.plain.warm_up()
            samples.append(time.perf_counter() - t0)
        if self.trace_path and not self.traced:
            self.traced = Worker(self.trace_path)
            self.traced.warm_up()
        return samples

    def run(self, req, rid, traced):
        worker = self.traced if traced else self.plain
        try:
            reply = worker.request(req.payload)
        except RuntimeError as exc:
            # a dead worker fails this request; a fresh one takes over
            worker.close()
            fresh = Worker(worker.trace_path)
            fresh.warm_up()
            if traced:
                self.traced = fresh
            else:
                self.plain = fresh
            return Outcome(str(exc), None, 0.0, 0.0, 0, None)
        if "error" in reply:
            last = reply["error"].strip().splitlines()[-1]
            return Outcome("exception: " + last, None, 0.0, 0.0, 0, None)
        return Outcome(None, reply["out"], reply["wall"], reply["cpu"], 0,
                       None)

    def close(self):
        """Stop the workers; return the untraced worker's peak RSS in KB."""
        if self.traced:
            self.traced.close()
        if self.plain:
            self.rss_kb = max(self.rss_kb, self.plain.close())
        return self.rss_kb


class Record(NamedTuple):
    req: decks.Request
    traced: bool
    outcome: Outcome


def measure(passes, seconds, trace, runner, probe=None):
    """Closed loop over whole passes of the deck.  A pass starts only if,
    at the mean pass time so far, it ends within `seconds`, or if the run
    has fewer than MIN_SAMPLES requests (so that at least ten lie beyond
    p90) or has not yet run the first pass (with trace: the first traced
    pass).  With trace, odd passes run traced.  With a probe, host speed
    is sampled between requests."""
    records = []
    always = 2 if trace else 1
    t0 = time.perf_counter()
    for npass, batch in enumerate(passes):
        elapsed = time.perf_counter() - t0
        if (npass >= always and len(records) >= MIN_SAMPLES
                and elapsed + elapsed / npass > seconds):
            break
        traced = bool(trace) and npass % 2 == 1
        for req in batch:
            if probe:
                probe.due()
            records.append(Record(req, traced,
                                  runner.run(req, len(records), traced)))
    return records


def judge(records):
    """Gate every answer, untimed.  Each distinct request's first answer is
    checked by its identity; a later answer must hash the same.

    Returns (per-record failure reason or None, result_sha)."""
    objs, shas, reasons = [], [], []
    for rec in records:
        obj, reason = None, rec.outcome.fail
        if reason is None:
            out = rec.outcome.out
            try:
                obj = json.loads(out) if isinstance(out, bytes) else out
            except ValueError:
                reason = "output is not JSON"
        objs.append(obj)
        shas.append(gate.canonical_sha(obj) if reason is None else None)
        reasons.append(reason)
    first = {}
    for rec, obj, reason in zip(records, objs, reasons):
        if reason is None and rec.req.key not in first:
            first[rec.req.key] = (rec.req, obj)
    outputs = {key: obj for key, (_, obj) in first.items()}
    verified = {}
    for key, (req, obj) in first.items():
        try:
            why = gate.verify(req, obj, outputs)
        except (KeyError, IndexError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            why = f"malformed output ({type(exc).__name__}: {exc})"
        verified[key] = (why, gate.canonical_sha(obj))
    for i, rec in enumerate(records):
        if reasons[i] is None:
            why, sha = verified[rec.req.key]
            if why is None and shas[i] != sha:
                why = "answer differs from the verified one"
            reasons[i] = why
    digest = gate.canonical_sha(sorted(verified.items()))
    return reasons, digest


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def best_per_group(timed, field):
    """Each sample replaced by the best (lowest) value of its group.

    A group is one distinct CLI request, repeated once per pass, or one
    slot of the session deck.  The shared host slows single processes and
    stretches of a run by up to 1.5x at random; the best of a group's
    repeats leaves that out, so what remains is the cost of the request."""
    best = {}
    for rec in timed:
        group = rec.req.group or rec.req.key
        value = getattr(rec.outcome, field)
        best[group] = min(best.get(group, value), value)
    return [best[rec.req.group or rec.req.key] for rec in timed]


def e2e_metrics(records, reasons, setup, rss_kb, scale=1.0):
    """End-to-end metrics of the untraced requests that passed the gate,
    each timed as the best of its group; times and rates are scaled by
    `scale`.

    Returns (scaled metrics, unscaled metrics)."""
    timed = [rec for rec, why in zip(records, reasons)
             if not rec.traced and why is None]
    wall = best_per_group(timed, "wall")
    cpu = best_per_group(timed, "cpu")
    rss = max([rss_kb] + [rec.outcome.rss_kb for rec in timed])
    raw = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": percentile(wall, 50),
        "latency_p90_s": percentile(wall, 90),
        "throughput_rps": len(wall) / sum(wall),
        "cpu_p50_s": percentile(cpu, 50),
        "peak_rss_mb": rss / 1024,
    }
    scaled = {name: value * scale for name, value in raw.items()}
    scaled["throughput_rps"] = raw["throughput_rps"] / scale
    scaled["peak_rss_mb"] = raw["peak_rss_mb"]
    return scaled, raw


def layer_metrics(records, session_trace):
    """Sum the traced requests' spans into the per-layer metrics."""
    total = {}
    for rec in records:
        if rec.traced and rec.outcome.trace:
            spans.merge(total, spans.aggregate(json.loads(rec.outcome.trace)))
    if session_trace:
        spans.merge(total, spans.aggregate(session_trace))
    empty = {"inclusive": {}, "calls": {}, "size": {}, "self": {},
             "ring_under": {}, "ops": {}, "roots": 0.0, "spans": 0}
    agg = dict(empty, **total)
    inc, calls, size, self_, ops = (agg["inclusive"], agg["calls"],
                                    agg["size"], agg["self"], agg["ops"])
    ok = [r for r in records if not r.outcome.fail]
    traced = [r.outcome.wall for r in ok if r.traced]
    plain = [r.outcome.wall for r in ok if not r.traced]
    ratio = (statistics.median(traced) / statistics.median(plain)
             if traced and plain else 0.0)
    out_bytes = sum(len(r.outcome.out) for r in records
                    if r.traced and isinstance(r.outcome.out, bytes))
    m = {
        "asep.oracle_s": inc.get("asep.oracle", 0.0),
        "asep.generator_s": inc.get("asep.generator", 0.0),
        "asep.mpa_s": inc.get("asep.mpa", 0.0),
        "asep.states": ops.get("asep.states", 0),
        "tensor.linear_form_s": inc.get("tensor.linear_form", 0.0),
        "tensor.normal_order_s": inc.get("tensor.normal_order", 0.0),
        "tensor.shock_mul_s": inc.get("tensor.shock_mul", 0.0),
        "tensor.words_in": (size.get("tensor.linear_form", 0)
                            + size.get("tensor.normal_order", 0)),
        "ring.poly_mul_calls": ops.get("ring.poly_mul_calls", 0),
        "ring.poly_div_calls": ops.get("ring.poly_div_calls", 0),
        "ring.kappa_mul_calls": ops.get("ring.kappa_mul_calls", 0),
        "ring.eval_calls": ops.get("ring.eval_calls", 0),
        "bimoment.det_s": inc.get("bimoment.det", 0.0),
        "bimoment.det_calls": calls.get("bimoment.det", 0),
        "biortho.cramer_s": inc.get("biortho.cramer", 0.0),
        "biortho.check_s": inc.get("biortho.check", 0.0),
        "matrep.represent_s": inc.get("matrep.represent", 0.0),
        "matrep.cheb_s": inc.get("matrep.cheb", 0.0),
        "cli.output_bytes": out_bytes,
        "expr.parse_s": inc.get("expr.parse", 0.0),
        "expr.eval_s": inc.get("expr.eval", 0.0),
        "trace.request_s": agg["roots"],
        "trace.requests": len(traced),
        "trace.overhead_ratio": ratio,
    }
    m.update({f"{layer}.self_s": self_.get(layer, 0.0)
              for layer in spans.LAYERS})
    return m, agg


# --- output ----------------------------------------------------------------

def git_commit():
    """The checkout's commit from .git, without running git; else unknown."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(launcher):
    rc, _, _, _ = launcher.run(["-c", "import biops; print(getattr(biops, "
                                "'KERNEL_BACKEND', 'none'))"],
                               WORK / "stdout", WORK / "stderr")
    backend = (WORK / "stdout").read_text().strip() if rc == 0 else "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "backend": backend, "commit": git_commit()}


def print_trace_summary(workload, agg, request_s):
    if not request_s:
        return
    shares = {layer: agg["self"].get(layer, 0.0) / request_s
              for layer in spans.LAYERS}
    print(f"{workload} self-time share of traced request time "
          f"({request_s:.3f} s): "
          + " ".join(f"{k}={v:.3f}" for k, v in shares.items()))
    oracle = agg["inclusive"].get("asep.oracle", 0.0) / request_s
    under = agg["ring_under"].get("tensor", 0.0) / request_s
    algebra = sum(shares[k] for k in ("ring", "bimoment", "biortho", "matrep"))
    print(f"{workload} share: asep.oracle + tensor self = "
          f"{oracle + shares['tensor']:.3f} (+ ring ops called by tensor = "
          f"{oracle + shares['tensor'] + under:.3f}); "
          f"ring+bimoment+biortho+matrep self = {algebra:.3f}")


def run_workload(workload, seed, seconds, trace, launcher):
    runner = (SessionRunner(trace) if workload == "session"
              else CliRunner(launcher))
    before, after = (1, 0) if trace else SETUP_SAMPLES[workload]
    probe = None if trace else Probe()
    try:
        setup = runner.setup_samples(before)
        records = measure(decks.passes(workload, seed), seconds, trace,
                          runner, probe)
        setup += runner.setup_samples(after)
    finally:
        rss_kb = runner.close()
        if probe:
            probe.close()
    reasons, digest = judge(records)
    failed = sum(1 for why in reasons if why is not None)
    for rec, why in zip(records, reasons):
        if why is not None:
            print(f"FAIL {workload} {rec.req.key}: {why}", file=sys.stderr)
    session_trace = None
    if trace and workload == "session":
        session_trace = json.loads(runner.trace_path.read_text())
    if trace:
        values, agg = layer_metrics(records, session_trace)
        table = PER_LAYER
        print_trace_summary(workload, agg, values["trace.request_s"])
    else:
        values, raw = e2e_metrics(records, reasons, setup, rss_kb,
                                  probe.scale())
        table = E2E
        print(f"{workload} host probe p10 {probe.speed():.6g} s over "
              f"{len(probe.samples)} probes (reference {calib.REFERENCE_S} s)"
              f"; times scaled by {probe.scale():.4f}")
    untraced = sum(1 for r in records if not r.traced)
    for name, unit in table:
        line = f"{workload} {name} {values[name]:.6g} {unit}"
        if not trace:
            line += f" (unscaled {raw[name]:.6g})"
        print(line)
    print(f"{workload} fail_ratio {failed / len(records):.6g} "
          f"({failed}/{len(records)}); {untraced} untraced samples; "
          f"result_sha {digest}")
    return {"correct": failed == 0, "attempted": len(records),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in table}}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=decks.WORKLOADS + ("all",),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind so that every child process is stopped and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "biops" / "__init__.py").is_file():
        print(f"perfbench: no biops package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one fresh process per workload, each starting small
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in decks.WORKLOADS]
        return max(codes)
    WORK.mkdir(exist_ok=True)
    launcher = Launcher()
    try:
        print("# perfbench " + json.dumps(dict(environment(launcher),
                                                seed=args.seed,
                                                seconds=args.seconds,
                                                trace=args.trace)))
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, launcher)
    finally:
        launcher.close()
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


ENV = child_env()

if __name__ == "__main__":
    sys.exit(main())
