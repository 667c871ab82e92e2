#!/usr/bin/env python3
"""Request benchmark: time zsplat requests end to end, check every output,
and, in a separate traced run, split each request across the package's
modules.

Run from the repository root (the package is imported from ``src/``):

    python3 bench/run.py --workload dense-k --seed 1 --seconds 25 --trace 0

One process serves one workload with one client in a closed loop: the next
request starts when the previous one has returned. Inputs are generated from
``--seed`` under ``.bench_work/`` and removed at exit. With ``--trace 0``
the run reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced requests on the same scenes and reports the per-layer
metrics, and writes its spans to ``.bench_work/trace-<workload>-<seed>.jsonl``.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

# One BLAS thread, as the zsplat CLI pins it, before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import resource
import shutil
import statistics
import subprocess
import tempfile
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))

# the driver allows 180 s per run; stop adding requests well before that
WALL_CAP_S = 120.0
CHECKPOINT_LOADS = 5

# per-layer metrics taken from span self times, and from per-request counts
SELF_TIMED = [m["name"][: -len(".self_s")] for m in spec.PER_LAYER
              if m["name"].endswith(".self_s")]
COUNTED = [m["name"] for m in spec.PER_LAYER
           if m["unit"] in ("count", "B", "B_computed", "flop_computed")]


def import_package(root: str) -> None:
    """Put ``<root>/src`` first on the path; exit if the package is absent."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zsplat", "__init__.py")):
        sys.exit(f"error: no zsplat package under {src}; run from the repository root")
    sys.path.insert(0, src)


def workload_config(name: str, tiny: bool = False) -> dict:
    base = spec.WORKLOADS[name]
    workload = {k: v for k, v in base.items() if k != "tiny"}
    if tiny:
        for key, value in base["tiny"].items():
            workload[key] = {**workload[key], **value} if isinstance(value, dict) else value
    return workload


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


class Server:
    """The loaded model and scene pool of one workload. Every request goes
    through the gate; errors and gate mismatches count as failures."""

    def __init__(self, request: dict, workdir: str, log):
        import harness
        from zsplat.config import RunConfig

        self.harness = harness
        self.request = request
        self.cfg = RunConfig(**request["run"])
        self.out_dir = os.path.join(workdir, "out")
        os.makedirs(self.out_dir)
        self.log = log
        self.model = None
        self.digests = {}
        self.attempted = 0
        self.failed = 0

    def load(self) -> float:
        from zsplat.pipeline import load_checkpoint

        t0 = time.perf_counter()
        self.model = load_checkpoint(self.request["checkpoint"], self.cfg)
        return time.perf_counter() - t0

    def serve(self, index: int, tracer=None):
        """Serve scene ``index`` of the pool (cyclically) and gate it.

        Returns (latency seconds, Served, or None when the request failed).
        """
        scenes = self.request["scenes"]
        scene = index % len(scenes)
        self.attempted += 1
        if tracer is not None:
            tracer.begin_request()
        t0 = time.perf_counter()
        try:
            served = self.harness.serve(
                scenes[scene], self.out_dir, self.cfg, self.model,
                self.request["max_views"], self.request["coverage_depth"], tracer,
            )
        except self.harness.REQUEST_ERRORS as exc:
            return time.perf_counter() - t0, self.fail(index, exc)
        latency = time.perf_counter() - t0
        try:
            self.digests[scene] = self.harness.gate(served, self.cfg, self.digests.get(scene))
        except self.harness.REQUEST_ERRORS as exc:
            return latency, self.fail(index, exc)
        return latency, served

    def fail(self, index: int, exc: Exception) -> None:
        self.failed += 1
        self.log(f"request {index} failed: {type(exc).__name__}: {exc}")
        return None

    def oracle(self, samples: list) -> bool:
        """Chunked vs loop top-k on every block of the sampled requests."""
        worst = max((self.harness.kernel_oracle(s, self.cfg, self.model,
                                                spec.ORACLE_RTOL, spec.ORACLE_ATOL)
                     for s in samples), default=0.0)
        self.log(f"kernel oracle: {len(samples)} requests, worst difference "
                 f"{worst:.3g} of tolerance (rtol {spec.ORACLE_RTOL}, atol {spec.ORACLE_ATOL})")
        return bool(samples) and worst <= 1.0


def setup_probes(request: dict, workdir: str, root: str) -> list:
    """Time load_checkpoint plus one cold request in fresh processes, one
    after another. Returns (seconds, PLY digests) per probe."""
    results = []
    for k in range(spec.SETUP_PROBES):
        probe = {**request, "scene": request["scenes"][0],
                 "out": os.path.join(workdir, f"probe_{k}")}
        path = os.path.join(workdir, f"probe_{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(probe, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe", path],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append((out["setup_s"], out["digests"]))
    return results


def probe_main(path: str) -> None:
    """Child side of ``setup_probes``."""
    import harness
    from zsplat.config import RunConfig
    from zsplat.pipeline import load_checkpoint

    with open(path, encoding="utf-8") as fh:
        probe = json.load(fh)
    cfg = RunConfig(**probe["run"])
    os.makedirs(probe["out"])
    t0 = time.perf_counter()
    model = load_checkpoint(probe["checkpoint"], cfg)
    served = harness.serve(probe["scene"], probe["out"], cfg, model,
                           probe["max_views"], probe["coverage_depth"])
    setup = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup,
                      "digests": [harness.file_digest(p) for p in served.paths]}))


def oracle_indices(seed: int) -> set:
    """Requests of the first pass over the pool that the oracle re-checks."""
    return set(random.Random(f"oracle{seed}").sample(range(spec.POOL_SIZE),
                                                     spec.ORACLE_SAMPLES))


def run_untraced(server: Server, workdir: str, root: str, seed: int,
                 seconds: float, started: float) -> tuple:
    """Setup, then the closed loop. Returns (end-to-end metrics, correct)."""
    log = server.log
    setups = [server.load()]
    lat, _ = server.serve(0)
    setups[0] += lat
    correct = True
    for probe_s, digests in setup_probes(server.request, workdir, root):
        setups.append(probe_s)
        if digests != server.digests.get(0):
            correct = False
            log("a setup probe wrote other PLY bytes than the serving process")

    sampled = oracle_indices(seed)
    samples, latencies, completed = [], [], 0
    while ((sum(latencies) < seconds or len(latencies) < spec.MIN_REQUESTS)
           and time.perf_counter() - started < WALL_CAP_S):
        lat, served = server.serve(len(latencies))
        if served is not None:
            completed += 1
            if len(latencies) in sampled:
                samples.append(served)
        latencies.append(lat)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = server.oracle(samples) and correct

    tail = p90(latencies)
    log(f"loop: {len(latencies)} requests, {sum(v > tail for v in latencies)} beyond "
        f"p90, {sum(latencies):.2f} s measured")
    log("setup samples (s): " + " ".join(f"{v:.4f}" for v in setups))
    metrics = {
        "requests_per_s": completed / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": tail,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, correct


def run_traced(server: Server, seed: int, seconds: float, started: float,
               spans_path: str) -> tuple:
    """Untraced and traced requests alternate on the same scenes; each
    traced decomposition must equal ``forward_scene`` bit for bit. Returns
    (per-layer metrics, correct)."""
    harness, log = server.harness, server.log
    loads = [server.load() for _ in range(CHECKPOINT_LOADS)]
    server.serve(0)
    tracer = harness.Tracer()
    sampled = oracle_indices(seed)
    samples, plain, traced, extra, mismatches = [], [], [], [], 0
    i = 0
    while ((sum(plain) + sum(traced) < seconds or len(traced) < 2 * spec.POOL_SIZE)
           and time.perf_counter() - started < WALL_CAP_S):
        first_traced = i % 2 == 1
        if first_traced:
            lat_t, out_t = server.serve(i, tracer)
        lat_p, out_p = server.serve(i)
        if not first_traced:
            lat_t, out_t = server.serve(i, tracer)
        plain.append(lat_p)
        traced.append(lat_t)
        extra.append(lat_t - lat_p)
        if out_p is not None and out_t is not None:
            if not harness.same_levels(out_p.levels, out_t.levels):
                mismatches += 1
                server.fail(i, RuntimeError("traced decomposition differs from forward_scene"))
            if i in sampled:
                samples.append(out_p)
        i += 1
    correct = server.oracle(samples) and mismatches == 0
    log(f"traced decomposition bit-equal to forward_scene on "
        f"{len(traced) - mismatches}/{len(traced)} requests")
    tracer.write(spans_path)

    per_request = tracer.self_times()
    counts = [c for c in tracer.counts if "zformer.pool.in" in c]
    metrics = {}
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = statistics.median(t.get(name, 0.0) for t in per_request)
    for name in COUNTED:
        metrics[name] = statistics.fmean(c.get(name, 0) for c in counts)
    metrics["zformer.topk.ragged_share"] = statistics.fmean(
        c.get("zformer.topk.ragged_s", 0.0) / c["zformer.topk.s"] for c in counts)
    metrics["zformer.pool.keep_ratio"] = statistics.fmean(
        c["zformer.pool.out"] / c["zformer.pool.in"] for c in counts)
    metrics["pipeline.load_checkpoint.s"] = statistics.median(loads)
    untraced_wall = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(extra)
    metrics["trace.layer_sum_s"] = statistics.median(
        sum(v for k, v in t.items() if k != "request") for t in per_request)
    metrics["trace.untraced_wall_s"] = untraced_wall
    gap = metrics["trace.layer_sum_s"] - untraced_wall
    log(f"layer self times sum to {metrics['trace.layer_sum_s']:.5f} s against "
        f"{untraced_wall:.5f} s untraced ({gap:+.5f} s; tracing overhead "
        f"{metrics['trace.overhead_s']:+.5f} s); spans in {spans_path}")
    return metrics, correct


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: str, tiny: bool = False, log=None) -> dict:
    """Run one workload and return the result object."""
    import harness

    log = log or (lambda msg: print(msg, flush=True))
    started = time.perf_counter()
    workload = workload_config(workload_name, tiny)
    work_root = os.path.join(root, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=work_root)
    try:
        request = harness.make_inputs(workload, seed, workdir, spec.POOL_SIZE)
        server = Server(request, workdir, log)
        log(f"workload {workload_name}: {workload['points']} points per request, "
            f"pool of {spec.POOL_SIZE} scenes, seed {seed}")
        if trace:
            spans = os.path.join(work_root, f"trace-{workload_name}-{seed}.jsonl")
            metrics, correct = run_traced(server, seed, seconds, started, spans)
            table = spec.PER_LAYER
        else:
            metrics, correct = run_untraced(server, workdir, root, seed, seconds, started)
            table = spec.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    log(f"requests_total {server.attempted} count")
    log(f"requests_failed {server.failed} count")
    for m in table:
        log(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
    return {
        "correct": bool(correct and server.failed == 0),
        "attempted": server.attempted,
        "failed": server.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in table},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = os.getcwd()
    import_package(root)
    if args.setup_probe:
        probe_main(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
