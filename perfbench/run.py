"""distmap benchmark: one workload, one seed, one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src`` directory.  The caller is a closed loop: one op at a time, the
next issued when the previous one returns.  Every op's answer is checked
by an oracle that shares no code with distmap (workloads.py, ecref.py),
and a per-op alarm turns a hang into a counted failure.  The whole run,
set-up included, stays within BUDGET_S seconds.

--trace 0 runs whole rounds of ops until S seconds have passed and at
least MIN_OPS ops were attempted, and prints the end-to-end metrics.
Set-up is timed SETUP_REPS times, spread evenly over the run, and the
median is reported.

Times are reported in reference milliseconds and seconds, which do
not move with the load of other tenants on a shared host.  There, the
same input can take a third longer from one minute to the next, in bursts
of milliseconds whose density drifts, and some whole runs go 70% slower;
no statistic of raw times in one run removes that.  So a fixed reference
kernel (affine point additions with ecref, the same kind of work as the
library's, sized per workload to a few percent of an op) runs between
every two timed calls, and each call's seconds are divided by the mean
seconds per addition of the reference runs just before and after it.
That ratio tracks the load during the call (their correlation is 0.94 on
a 2-vCPU VM) and is a cost in additions; multiplied by REF_ADD_S, the
time of one addition on that VM when unloaded, it reads as time.  Like a
cycle count, it moves when the program gets faster or slower, not when
the host does.

--trace 1 runs a fixed number of rounds twice, untraced and then with
every public distmap function traced (tracer.py), and prints the
per-layer metrics.  Its counts depend on the seed alone.

Both modes end with the golden CLI gate (gate.py).  The last line of
stdout is the JSON result; a summary goes to stderr.  The exit code is 0
when every answer and the gate were correct, 1 when not or when set-up
failed (then no result is printed), and 2 when there are no sources.
"""

import argparse
from array import array
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from types import SimpleNamespace

import ecref
import gate
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"

SETUP_REPS = 9
REF_ADD_S = 1.7e-6    # one reference addition, unloaded 2-vCPU VM, Python 3.11
MIN_OPS = 200         # so that at least 10 ops lie beyond the p95
BUDGET_S = 165.0      # the whole process, set-up to result
GATE_RESERVE_S = 30.0  # ops stop being issued this long before the budget ends

REPORTED = (
    "field.inv", "field.sqrt", "field.legendre",
    "curve.validate", "curve.point_add", "curve.scalar_mul", "curve.count_points",
    "torsion.find_torsion_basis", "torsion.dlog2d",
    "pairing.miller_eval", "pairing.weil_pairing",
    "endo.endo_eval", "endo.endo_matrix",
    "classify.distortion_census", "classify.verify_theorem1",
    "ddh.ddh_decide", "catalog.builtin_catalog", "cli.main",
)


class OpTimeout(BaseException):
    """Raised by the per-op alarm; a BaseException so that library code
    catching Exception cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


@contextmanager
def alarm(seconds):
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


class Budget:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self, reserve=0.0):
        return self.end - reserve - time.perf_counter()


def load_distmap():
    """Import distmap afresh from SRC (module state, such as the catalog
    cache, starts empty) and return its layer modules."""
    for name in [m for m in sys.modules if m.split(".")[0] == "distmap"]:
        del sys.modules[name]
    dm = SimpleNamespace(package=importlib.import_module("distmap"))
    for layer in LAYERS:
        setattr(dm, layer, importlib.import_module(f"distmap.{layer}"))
    return dm


def reference_kernel(adds):
    """`adds` affine point additions on y^2 = x^3 + 3x over F_(2^31 - 1),
    with ecref: the same kind of work as the library's group law."""
    T = None
    for _ in range(adds):
        T = ecref.add(2147483647, 3, T, (1, 2))
    return T


class Clock:
    """Converts seconds to reference seconds (see the module docstring)."""

    def __init__(self, adds):
        self.adds = adds
        self.runs = 0
        self.last = self.ref()

    def ref(self):
        """Seconds per addition of one run of the reference kernel."""
        t0 = time.perf_counter()
        reference_kernel(self.adds)
        self.runs += 1
        return (time.perf_counter() - t0) / self.adds

    def reference_s(self, seconds):
        """Reference seconds of a call that just took `seconds`."""
        before, self.last = self.last, self.ref()
        return seconds / ((before + self.last) / 2) * REF_ADD_S


def traced(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def setup(wl, data, budget, tracer=None):
    """import distmap + builtin_catalog() + the workload's preparation."""
    with alarm(budget.left(GATE_RESERVE_S)):
        t0 = time.perf_counter()
        dm = load_distmap()
        if tracer:
            tracer.install(dm)
            tracer.active = True
        try:
            with traced(tracer, "bench.setup"):
                dm.catalog.builtin_catalog()
                state = wl.prepare(dm, data)
        finally:
            if tracer:
                tracer.active = False
        return dm, state, time.perf_counter() - t0


def setup_again(wl, data, budget, clock):
    """Time one more set-up, in reference seconds, then put back the modules
    the ops use (cli imports some lazily, by name)."""
    kept = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "distmap"}
    dt = setup(wl, data, budget)[2]
    sys.modules.update(kept)
    return clock.reference_s(dt)


class Tally:
    def __init__(self):
        # reference seconds; compact, so that peak_rss_mb hardly depends on
        # how many ops the host let the run complete
        self.lat = {"a": array("d"), "b": array("d")}
        self.busy = 0.0
        self.ok = self.wrong = self.raised = self.timeouts = 0
        self.rounds = 0
        self.notes = []

    @property
    def attempted(self):
        return len(self.lat["a"]) + len(self.lat["b"])

    @property
    def failed(self):
        return self.wrong + self.raised + self.timeouts

    def note(self, text):
        if len(self.notes) < 5:
            self.notes.append(text)


def run_op(op, timeout, tally, tracer=None):
    """Call and check one op; return its latency in seconds."""
    res = exc = None
    if tracer:
        tracer.active = True
    try:
        with alarm(timeout):
            t0 = time.perf_counter()
            try:
                with traced(tracer, "bench.op"):
                    res = op.call()
            finally:
                dt = time.perf_counter() - t0
    except (OpTimeout, Exception) as e:
        exc = e
    finally:
        if tracer:
            tracer.active = False
    tally.busy += dt
    if isinstance(exc, OpTimeout):
        tally.timeouts += 1
        tally.note(f"timed out after {timeout:.1f} s")
    elif exc is not None:
        if op.accept is not None and op.accept(exc):
            tally.ok += 1
        else:
            tally.raised += 1
            tally.note(f"raised {type(exc).__name__}: {exc}")
    else:
        try:
            good = op.check(res)
        except Exception as e:
            good = False
            tally.note(f"unreadable answer {res!r}: {e}")
        if good:
            tally.ok += 1
        else:
            tally.wrong += 1
            tally.note(f"wrong answer {res!r}")
    return dt


def measure(wl, dm, state, data, budget, clock, rounds=None, seconds=None,
            tracer=None, between=None):
    """Whole rounds of ops: a fixed number, or until `seconds` passed.
    `between(elapsed)` is called after each round."""
    tally = Tally()
    start = time.perf_counter()
    while rounds is None or tally.rounds < rounds:
        if (rounds is None and time.perf_counter() - start >= seconds
                and tally.attempted >= MIN_OPS):
            break
        for op in wl.round_ops(dm, state, data, tally.rounds):
            left = budget.left(GATE_RESERVE_S)
            if left <= 0:
                tally.note("time budget used up; stopped issuing ops")
                return tally
            dt = run_op(op, min(wl.op_timeout, left), tally, tracer)
            tally.lat[op.klass].append(clock.reference_s(dt))
        tally.rounds += 1
        if between:
            between(time.perf_counter() - start)
    return tally


def run_gate(dm, budget, tracer=None):
    if tracer:
        tracer.active = True
    try:
        with alarm(budget.left()), traced(tracer, "bench.gate"):
            return gate.check(dm.cli.main)
    except OpTimeout:
        return ["golden CLI gate ran out of time"]
    finally:
        if tracer:
            tracer.active = False


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(tally, setups):
    lat = tally.lat["a"] + tally.lat["b"]
    return {
        "ops_per_s": metric(tally.ok / sum(lat), "1/s"),
        "op_p95_ms": metric(statistics.quantiles(lat, n=20)[18] * 1e3, "ms"),
        "class_a_p50_ms": metric(statistics.median(tally.lat["a"]) * 1e3, "ms"),
        "class_b_p50_ms": metric(statistics.median(tally.lat["b"]) * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric(tally.ok / tally.attempted, "ratio"),
    }


def per_layer(tracer, base, traced_tally):
    out = {}
    for name in REPORTED:
        calls, total_s, self_s, raised = tracer.totals(name)
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.total_s"] = metric(total_s, "s")
        out[f"{name}.self_s"] = metric(self_s, "s")
        out[f"{name}.raised"] = metric(raised, "count")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = metric(tracer.layer_self_s(layer), "s")
    out["torsion.dlog2d.point_adds"] = metric(
        tracer.child_count("torsion.dlog2d", "curve.point_add"), "count")
    # Miller evaluations per pairing that ran Miller's loop at all (weil_pairing
    # returns at once when an argument is the identity): 2 plus retries.
    pairings = tracer.parents_with_child("pairing.weil_pairing", "pairing.miller_eval")
    out["pairing.miller_per_pairing"] = metric(
        tracer.totals("pairing.miller_eval")[0] / max(pairings, 1), "ratio")
    out["trace_overhead_frac"] = metric(
        traced_tally.busy / base.busy - 1, "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "distmap" / "__init__.py").is_file():
        print(f"error: no distmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _alarm)
    budget = Budget(BUDGET_S)
    wl = WORKLOADS[args.workload]
    data = wl.generate(args.seed)
    clock = Clock(wl.ref_adds)

    try:
        if args.trace:
            dm, state, _ = setup(wl, data, budget)
            base = measure(wl, dm, state, data, budget, clock,
                           rounds=wl.trace_rounds)
            tracer = Tracer()
            dm, state, _ = setup(wl, data, budget, tracer)
            tallies = [base, measure(wl, dm, state, data, budget, clock,
                                     rounds=wl.trace_rounds, tracer=tracer)]
        else:
            dm, state, dt = setup(wl, data, budget)
            setups = [clock.reference_s(dt)]

            def spread_setups(elapsed):
                if (len(setups) < SETUP_REPS
                        and elapsed >= len(setups) * args.seconds / SETUP_REPS):
                    setups.append(setup_again(wl, data, budget, clock))

            tallies = [measure(wl, dm, state, data, budget, clock,
                               seconds=args.seconds, between=spread_setups)]
            while len(setups) < SETUP_REPS:
                setups.append(setup_again(wl, data, budget, clock))
    except OpTimeout:
        print("error: set-up ran out of time", file=sys.stderr)
        return 1
    if not all(t.lat["a"] and t.lat["b"] for t in tallies):
        print("error: no op of some class completed", file=sys.stderr)
        return 1
    if args.trace:
        problems = run_gate(dm, budget, tracer)
        metrics = per_layer(tracer, *tallies)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.dump(TRACE_DIR / f"{args.workload}.trace")
    else:
        problems = run_gate(dm, budget)
        metrics = end_to_end(tallies[0], setups)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    correct = not problems and all(t.wrong == 0 for t in tallies)
    for t in tallies:
        print(f"{args.workload} seed={args.seed}: {t.rounds} rounds, "
              f"{t.attempted} ops (class a {len(t.lat['a'])}, class b "
              f"{len(t.lat['b'])}), {t.ok} correct, {t.wrong} wrong, "
              f"{t.raised} raised, {t.timeouts} timed out, busy {t.busy:.2f} s",
              file=sys.stderr)
        for n in t.notes:
            print(f"  failure: {n}", file=sys.stderr)
    for p in problems:
        print(f"  gate: {p}", file=sys.stderr)
    print(f"reference kernel: {clock.runs} runs; op time in the run "
          f"{sum(t.busy for t in tallies):.2f} s, in reference seconds "
          f"{sum(sum(t.lat['a']) + sum(t.lat['b']) for t in tallies):.2f} s",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
