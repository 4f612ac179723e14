"""Benchmark of the lattes-sft library and CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload functor_sweep --seed 1 --seconds 15 --trace 0

One client runs one operation at a time (a closed loop).  Each run repeats
whole rounds of the seeded inputs until the operations have taken
``--seconds`` in total; the first output of each input is checked against
``oracles``, and every later round must give the same output.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced run with ``--trace 1``.  ``--workload all`` runs every workload
in turn; ``--repeat N`` runs N seeds and prints each metric's quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import resource
import statistics
import subprocess
import sys
import warnings
from fractions import Fraction
from hashlib import sha256
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")
SETUP_SAMPLES = 7
STARTUP_SAMPLES = 5
NAMES = ("functor_sweep", "periodic_counts", "periodic_locations", "shift_equiv", "cli_corpus")


def _require_source_tree() -> None:
    if not os.path.isfile(os.path.join(SRC, "lattes_sft", "__init__.py")):
        raise SystemExit(f"error: no source tree at {SRC}")


def _import_program():
    """Import lattes_sft from this checkout's source tree, never from
    anywhere else on the path."""
    _require_source_tree()
    sys.path.insert(0, SRC)
    import lattes_sft

    if os.path.dirname(os.path.dirname(os.path.abspath(lattes_sft.__file__))) != SRC:
        raise SystemExit(f"error: lattes_sft imported from {lattes_sft.__file__}")
    return lattes_sft


def setup(name: str, seed: int, tiny: bool):
    """Import the program, generate the inputs and build the calls."""
    _import_program()
    import workloads

    wl = workloads.WORKLOADS[name]()
    raws = wl.generate(random.Random(f"{name}:{seed}"), tiny)
    return wl, raws, wl.prepare(raws)


def _child(args: list[str]) -> list[str]:
    return [sys.executable, os.path.join(HERE, "run.py"), *args]


def measure_setup(name: str, seed: int, tiny: bool) -> float:
    """Median time from process start to the moment the first operation
    could run, over fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        argv = ["--probe-setup", "--workload", name, "--seed", str(seed)]
        ref = reference_probe()
        t0 = perf_counter()
        p = subprocess.Popen(_child(argv + (["--tiny"] if tiny else [])), stdout=subprocess.PIPE, cwd=ROOT)
        line = p.stdout.readline()
        t1 = perf_counter()
        p.stdout.read()
        p.stdout.close()
        if p.wait() != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {p.returncode}")
        ref = (ref + reference_probe()) / 2
        samples.append((t1 - t0) * REF_NOMINAL_S / ref)
    return statistics.median(samples)


def measure_startup() -> tuple[float, float]:
    """Median wall time of a bare interpreter and of one that imports
    lattes_sft; returns (interpreter, import minus interpreter)."""
    bare, imported = [], []
    code = f"import sys; sys.path.insert(0, {SRC!r}); import lattes_sft"
    for _ in range(STARTUP_SAMPLES):
        for out, argv in ((bare, ["-c", "pass"]), (imported, ["-c", code])):
            t0 = perf_counter()
            subprocess.run([sys.executable, *argv], check=True, cwd=ROOT)
            out.append(perf_counter() - t0)
    b = statistics.median(bare)
    return b, statistics.median(imported) - b


# The machine this benchmark runs on is shared: its speed drifts by up to
# half over tens of seconds, for every process alike.  Each time metric is
# therefore scaled by REF_NOMINAL_S / (time of a fixed reference loop run
# next to the measurement), that is, reported at the speed at which the
# reference loop takes REF_NOMINAL_S.  The reference loop is the benchmark's
# own code and mixes what the program spends its time on: interpreter
# dispatch, big-integer products and Fractions.
REF_NOMINAL_S = 0.0005
_REF_BIG = 3**12000
_REF_MASK = (1 << 19000) - 1


def reference_probe() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(3000):
        s += i * i % 7
    x = _REF_BIG
    for _ in range(2):
        x = x * _REF_BIG & _REF_MASK
    f = Fraction(0)
    for i in range(1, 30):
        f += Fraction(1, i)
    {(i, i + 1): (i, s) for i in range(200)}
    return perf_counter() - t0


class Loop:
    """Closed loop over whole rounds of the same calls."""

    def __init__(self, wl, raws, calls, recorder=None):
        self.wl, self.raws, self.calls = wl, raws, calls
        self.recorder = recorder
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at the nominal reference speed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # wrong outputs
        self.failures: list[str] = []  # operations that raised
        self.deferred: list = []
        self.digests: dict[int, str] = {}

    def round(self) -> float:
        total = 0.0
        ref = reference_probe()
        for i, (raw, call) in enumerate(zip(self.raws, self.calls)):
            self.attempted += 1
            with warnings.catch_warnings(record=True) as log:
                warnings.simplefilter("always")
                if self.recorder is not None:
                    self.recorder.begin_op(self.attempted, log)
                t0 = perf_counter()
                try:
                    result = call()
                except Exception as exc:  # an operation that fails is counted, not fatal
                    self.failed += 1
                    self.failures.append(f"op {i} failed: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    dt = perf_counter() - t0
            total += dt
            ref_after = reference_probe()
            self.latencies.append(dt)
            self.scaled.append(dt * REF_NOMINAL_S * 2 / (ref + ref_after))
            ref = ref_after
            plain = self.wl.plain(raw, result, len(log))
            digest = sha256(pickle.dumps(plain)).hexdigest()
            if i not in self.digests:
                self.digests[i] = digest
                self.errors += self.wl.check(raw, plain, self.deferred)
            elif self.digests[i] != digest:
                self.errors.append(f"op {i}: output differs from the first round")
        return total

    def run(self, seconds: float, min_rounds: int = 1) -> None:
        elapsed, rounds = 0.0, 0
        while rounds < min_rounds or elapsed < seconds:
            elapsed += self.round()
            rounds += 1


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(name, seed, seconds, tiny):
    setup_s = measure_setup(name, seed, tiny)
    wl, raws, calls = setup(name, seed, tiny)
    loop = Loop(wl, raws, calls)
    loop.run(seconds, getattr(wl, "min_rounds", 1))
    if name == "cli_corpus":
        peak_kb = wl.max_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p50 = statistics.median(loop.scaled)
    p90 = _quantile(loop.scaled, 0.9) if wl.reports_tail else p50
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(loop.scaled) / sum(loop.scaled), "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return loop, metrics


PER_OP_SELF = (
    "cfrac.period_matrix", "cfrac.expand", "cfrac.square_part", "lattice.scale_lattice",
    "lattice.hnf2", "exactnum.companion_matrix", "sft.zeta_sft", "sft.k_invariants",
    "intlinalg.smith_normal_form", "intlinalg.charpoly", "pipeline.functor_invariants",
    "dynsys.aberth_roots", "dynsys.iterate", "lattes.RationalMap.post_init",
    "exactnum.Poly.squarefree_part", "exactnum.Poly.gcd", "dynsys.periodic_points",
    "pipeline.comparison_report", "sft.per_count_trace", "sft.per_count_enumerate",
    "intlinalg.sylvester_solutions", "sft.shift_equivalent", "sft.gl2z_similar",
    "pipeline.conjugacy_test",
)


def layer_metrics(stats, n_ops: int, cli_stats, cli_ops: int, startup) -> dict:
    """Per-layer metrics from span totals: self time and counts per
    operation, sizes as means per call, decided ratios over calls."""

    from spans import Stat

    def st(name):
        return stats.get(name) or Stat()

    def mean(name, key):
        s = st(name)
        return s.sizes.get(key, 0) / s.calls if s.calls else 0.0

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    m = {f"{n}.self_s": (per_op(st(n).self_s), "s/op") for n in PER_OP_SELF}
    m["cfrac.period_matrix.entry_bits"] = (mean("cfrac.period_matrix", "entry_bits"), "bits")
    m["cfrac.expand.period_len"] = (mean("cfrac.expand", "period_len"), "count")
    m["cfrac.square_part.calls"] = (per_op(st("cfrac.square_part").calls), "count/op")
    m["dynsys.aberth_roots.roots"] = (per_op(st("dynsys.aberth_roots").sizes.get("roots", 0)), "count/op")
    m["dynsys.aberth_roots.nonconverged"] = (per_op(st("dynsys.aberth_roots").warnings), "count/op")
    m["dynsys.iterate.degree"] = (mean("dynsys.iterate", "degree"), "count")
    m["dynsys.iterate.coeff_bits"] = (mean("dynsys.iterate", "coeff_bits"), "bits")
    m["dynsys.compose.calls"] = (per_op(st("dynsys.compose").calls), "count/op")
    m["intlinalg.sylvester_solutions.candidates"] = (
        per_op(st("intlinalg.sylvester_solutions").sizes.get("candidates", 0)), "count/op")
    m["intlinalg.solve_right.calls"] = (per_op(st("intlinalg.solve_right").calls), "count/op")
    m["intlinalg.mat_mul.calls"] = (per_op(st("intlinalg.mat_mul").calls), "count/op")
    m["sft.shift_equivalent.decided_ratio"] = (mean("sft.shift_equivalent", "decided"), "ratio")
    m["sft.gl2z_similar.decided_ratio"] = (mean("sft.gl2z_similar", "decided"), "ratio")
    main = cli_stats.get("cli.main")
    m["cli.main.self_s"] = ((main.self_s / cli_ops) if main and cli_ops else 0.0, "s/op")
    m["cli.interpreter_s"] = (startup[0], "s")
    m["cli.import_s"] = (startup[1], "s")
    return m


def _traced_round(loop, rec) -> list[float]:
    """One round with the recorder's wrappers installed; its scaled
    latencies."""
    n0 = len(loop.scaled)
    rec.install()
    loop.recorder = rec
    try:
        loop.round()
    finally:
        rec.uninstall()
        loop.recorder = None
    return loop.scaled[n0:]


def traced(name, seed, seconds, tiny):
    """Untraced and traced rounds in turn until the traced operations have
    taken ``seconds``; the overhead compares the two kinds of round."""
    from spans import Recorder

    import workloads

    wl, raws, calls = setup(name, seed, tiny)
    if name == "cli_corpus":
        calls = wl.prepare_in_process(raws)
    loop = Loop(wl, raws, calls)
    rec = Recorder()
    untraced: list[list[float]] = []
    traced_lat: list[float] = []
    traced_time = 0.0
    while not traced_lat or traced_time < seconds:
        n0 = len(loop.scaled)
        loop.round()
        untraced.append(loop.scaled[n0:])
        n0 = len(loop.latencies)
        traced_lat += _traced_round(loop, rec)
        traced_time += sum(loop.latencies[n0:])
    # the first round also pays for first calls; leave it out when possible
    base = [t for r in (untraced[1:] or untraced) for t in r]
    overhead = statistics.fmean(traced_lat) / statistics.fmean(base) - 1
    if name == "cli_corpus":
        cli_rec, cli_ops = rec, len(traced_lat)
    else:
        # cli.main self time on the seed's CLI corpus, in a recorder of its own
        cli_wl = workloads.CliCorpus()
        cli_raws = cli_wl.generate(random.Random(f"cli_corpus:{seed}"), tiny)
        cli_loop = Loop(cli_wl, cli_raws, cli_wl.prepare_in_process(cli_raws))
        cli_rec = Recorder()
        cli_ops = len(_traced_round(cli_loop, cli_rec))
        loop.errors += cli_loop.errors
        loop.failures += cli_loop.failures
        loop.failed += cli_loop.failed
        loop.attempted += cli_loop.attempted
    metrics = layer_metrics(rec.stats, len(traced_lat), cli_rec.stats, cli_ops, measure_startup())
    top = sorted(((s.self_s, n) for n, s in rec.stats.items()), reverse=True)[:5]
    summary = {
        "workload": name,
        "seed": seed,
        "traced_ops": len(traced_lat),
        "untraced_ops": len(base),
        "overhead": overhead,
        "top_self_s": [[n, t] for t, n in top],
    }
    os.makedirs(TRACE_DIR, exist_ok=True)
    rec.write(os.path.join(TRACE_DIR, f"{name}-seed{seed}.jsonl"), summary)
    print(f"tracing overhead {overhead * 100:+.1f}% per operation "
          f"({len(traced_lat)} traced vs {len(base)} untraced operations)", file=sys.stderr)
    print("largest self time: " + ", ".join(f"{n} {t:.3f} s" for t, n in top), file=sys.stderr)
    return loop, metrics


def run_workload(name, seed, seconds, trace, tiny=False):
    if trace:
        loop, metrics = traced(name, seed, seconds, tiny)
    else:
        loop, metrics = end_to_end(name, seed, seconds, tiny)
    import oracles

    wrong = loop.errors + oracles.run_deferred(loop.deferred)
    for e in (loop.failures + wrong)[:20]:
        print(f"{name}: {e}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{name:>18}  {key:<44} {value:14.6g} {unit}")
    print(f"{name:>18}  attempted {loop.attempted}, failed {loop.failed}, "
          f"latency samples {len(loop.latencies)}, wrong {len(wrong)}")
    return {
        "correct": not wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def repeat(args) -> int:
    """Run N seeds in fresh processes; print each metric's quartiles."""
    bounds = {}
    bench = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench):
        with open(bench) as fh:
            spec = json.load(fh)
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    shares = set()
    for i in range(args.repeat):
        argv = ["--workload", args.workload, "--seed", str(args.seed + i),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(_child(argv), stdout=subprocess.PIPE, check=True, cwd=ROOT)
        res = json.loads(out.stdout.decode().strip().splitlines()[-1])
        shares.add((res["failed"], res["attempted"], res["correct"]))
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        print(f"seed {args.seed + i}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
              flush=True)
    print(f"(failed, attempted, correct) per run: {sorted(shares)}")
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        b = bounds.get(k)
        note = "" if b is None else f"  bound {b}  spread/bound {spread / b:.2f}"
        print(f"{k:<44} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}{note}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="run this many seeds and report quartiles")
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeat and args.workload == "all":
        p.error("--repeat takes one workload")
    _require_source_tree()

    if args.probe_setup:
        setup(args.workload, args.seed, args.tiny)
        print("ready", flush=True)
        return 0
    if args.repeat:
        return repeat(args)
    names = NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
