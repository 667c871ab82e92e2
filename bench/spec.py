"""What the request benchmark runs and reports.

Each workload is a pool of synthetic sphere scenes served one request at a
time (closed loop, one client). ``scene`` holds the ``generate_scene``
overrides shared by the pool, ``run`` the ``RunConfig`` overrides, and
``points`` the stated input size: the points that reach ``forward_scene``
on every request. ``tiny`` shrinks a workload for the smoke test only.

``END_TO_END`` and ``PER_LAYER`` mirror ``BENCHMARK.json`` (names, units,
direction, bounds); ``moves`` and ``on`` record which end-to-end metric a
layer metric should move and on which workload, and ``unchanged_on`` the
workload that bypasses the layer, where no change is predicted.
"""

WORKLOADS = {
    "dense-k": {
        "why": "top-k is ~80% of the wall and its score work is quadratic in n; "
               "the ragged level-2 input (n~907) takes the Python loop path",
        "scene": {"resolution": [64, 64], "n_views": 1},
        "run": {"cell": 0.0625},
        "max_views": 1,
        "coverage_depth": 8,
        "points": 4096,
        "tiny": {"scene": {"resolution": [16, 16]}, "run": {"cell": 0.25}},
    },
    "sparse-k": {
        "why": "k fixed at 8 drops top-k to ~44%; group, block ranking, pooling, "
               "fusion, head and sort come forward; fewer, narrower gathers",
        "scene": {"resolution": [128, 128], "n_views": 1},
        "run": {"cell": 0.03125, "select_k": 8},
        "max_views": 1,
        "coverage_depth": 8,
        "points": 16384,
        "tiny": {"scene": {"resolution": [32, 32]}, "run": {"cell": 0.125}},
    },
    "many-views": {
        "why": "scene IO, candidate building and greedy selection do half the "
               "work; forward runs on the 6 selected views",
        "scene": {"resolution": [32, 32], "n_views": 48},
        "run": {"cell": 0.125, "select_k": 8},
        "max_views": 6,
        "coverage_depth": 8,
        "points": 6144,
        "tiny": {"scene": {"resolution": [8, 8], "n_views": 8},
                 "max_views": 3, "points": 192},
    },
}

# scenes per workload pool; every scene repeats, so outputs of repeats are
# compared byte for byte
POOL_SIZE = 8

# p90 needs at least ten requests beyond it
MIN_REQUESTS = 110

# fresh processes that each time load_checkpoint plus one cold request
SETUP_PROBES = 6

# requests per run checked against the zformer_block_fwd loop path
ORACLE_SAMPLES = 2

# The chunked top-k path batches float32 matmuls over many query blocks, the
# loop path multiplies one block at a time, so sums round in another order.
# Observed differences are ~1e-6 relative; these leave room without letting
# a wrong block selection or softmax through.
ORACLE_RTOL = 1e-4
ORACLE_ATOL = 1e-5

END_TO_END = [
    {"name": "requests_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "latency_p90_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

_E2E_LATENCY = ["requests_per_s", "latency_p50_s"]

# name, unit, better, moves, on, and where no change is predicted
_LAYERS = [
    ("zformer.topk.self_s", "s", "lower", _E2E_LATENCY + ["peak_rss_mb"], "dense-k", "many-views"),
    ("zformer.topk.score_flops", "flop_computed", "lower", _E2E_LATENCY, "dense-k", "many-views"),
    ("zformer.topk.gather_bytes", "B_computed", "lower", _E2E_LATENCY + ["peak_rss_mb"], "dense-k", "many-views"),
    ("zformer.topk.ragged_share", "ratio", "lower", _E2E_LATENCY, "dense-k", "many-views"),
    ("zformer.group.self_s", "s", "lower", ["latency_p50_s"], "sparse-k", None),
    ("zformer.group.score_flops", "flop_computed", "lower", ["latency_p50_s"], "sparse-k", None),
    ("zformer.select.self_s", "s", "lower", ["latency_p50_s"], "sparse-k", None),
    ("zformer.select.blocks", "count", "lower", ["latency_p50_s"], "sparse-k", None),
    ("zformer.fuse.self_s", "s", "lower", ["latency_p50_s"], "sparse-k", None),
    ("zformer.pool.self_s", "s", "lower", ["latency_p50_s"], "sparse-k", None),
    ("zformer.pool.keep_ratio", "ratio", "lower", ["latency_p50_s"], "sparse-k", None),
    ("morton.sort.self_s", "s", "lower", ["latency_p50_s"], "sparse-k", None),
    ("morton.sort.points", "count", "lower", ["latency_p50_s"], "sparse-k", None),
    ("gaussian_head.predict.self_s", "s", "lower", ["latency_p50_s"], "sparse-k", None),
    ("gaussian_head.predict.gaussians", "count", "higher", ["latency_p50_s"], "sparse-k", None),
    ("scene.load.self_s", "s", "lower", ["requests_per_s"], "many-views", None),
    ("scene.load.bytes", "B", "lower", ["requests_per_s"], "many-views", None),
    ("scene.unproject.self_s", "s", "lower", ["requests_per_s"], "many-views", None),
    ("scene.assemble.self_s", "s", "lower", ["requests_per_s"], "many-views", None),
    ("scene.write_ply.self_s", "s", "lower", ["requests_per_s"], "many-views", None),
    ("scene.write_ply.bytes", "B", "lower", ["requests_per_s"], "many-views", None),
    ("view_select.build.self_s", "s", "lower", ["requests_per_s", "latency_p90_s"], "many-views", "dense-k"),
    ("view_select.build.cells", "count", "lower", ["requests_per_s", "latency_p90_s"], "many-views", "dense-k"),
    ("view_select.select.self_s", "s", "lower", ["requests_per_s", "latency_p90_s"], "many-views", "dense-k"),
    ("view_select.select.covered_cells", "count", "higher", ["requests_per_s", "latency_p90_s"], "many-views", "dense-k"),
    ("pipeline.load_checkpoint.s", "s", "lower", ["setup_s"], "all", None),
    ("trace.overhead_s", "s", "lower", [], "all", None),
    ("trace.layer_sum_s", "s", "lower", [], "all", None),
    ("trace.untraced_wall_s", "s", "lower", [], "all", None),
]

PER_LAYER = [
    {"name": n, "unit": u, "better": b, "moves": m, "on": o, "unchanged_on": s}
    for n, u, b, m, o, s in _LAYERS
]
