"""Metric names, units and directions, shared by the runner, its tests
and BENCHMARK.json."""

from __future__ import annotations

import statistics

import numpy as np

END_TO_END = {
    "ok_docs_per_s": "1/s",
    "doc_p50_ms": "ms",
    "doc_p90_ms": "ms",
    "ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# layers reported with a call count and self time
COUNTED = (
    "hermitian.eigh", "hermitian.eigh_coefficient_space",
    "sdp.check_feasibility", "sdp.solve",
    "spectrahedron.reduce_spectrahedron", "spectrahedron.optimize_linear",
    "algebra.gns", "algebra.commutant", "algebra.from_basis", "algebra.generate_algebra",
    "korovkin.korovkin_demo",
)
# layers reported with self time only
TIMED = (
    "problems.parse_problem", "problems.run", "problems.render_value", "cli.main",
    "states.has_uep", "states.extension_interval", "states.is_pure", "states.pure_decomposition",
    "rigidity.riesz_sequence", "rigidity.solve_unperforated_instance",
    "rigidity.search_counterexample", "rigidity.ucp_fixed_extent",
)


def _per_layer_spec() -> dict:
    """metric name -> (unit, better)"""
    spec = {}
    for layer in COUNTED:
        spec[f"{layer}.calls"] = ("count", "lower")
        spec[f"{layer}.self_ms"] = ("ms", "lower")
    for layer in TIMED:
        spec[f"{layer}.self_ms"] = ("ms", "lower")
    spec.update({
        "hermitian.eigh_coefficient_space.mean_dim": ("dim", "lower"),
        "sdp.newton_steps": ("count", "lower"),
        "sdp.newton_per_call": ("steps/call", "lower"),
        "sdp.numerical_failures": ("count", "lower"),
        "sdp.useful_frac": ("frac", "higher"),
        "spectrahedron.face_rounds": ("count", "lower"),
        "trace.overhead_frac": ("frac", "lower"),
    })
    return spec


PER_LAYER = _per_layer_spec()


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end_metrics(latency_s: list, ok: int, setup_s: float, peak_rss_mb: float) -> dict:
    """Per-document latencies (seconds, one per attempted document) and the
    count of documents that passed, as the END_TO_END metrics."""
    lat_ms = [1000.0 * x for x in latency_s]
    values = {
        "ok_docs_per_s": ok / sum(latency_s),
        "doc_p50_ms": percentile(lat_ms, 50),
        "doc_p90_ms": percentile(lat_ms, 90),
        "ok_frac": ok / len(latency_s),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer_metrics(rounds: list, overhead: float) -> dict:
    """Medians over traced rounds of each layer's per-round totals."""

    def med(get):
        return float(statistics.median(get(r) for r in rounds))

    values = {}
    for layer in COUNTED:
        values[f"{layer}.calls"] = med(lambda r: r["calls"].get(layer, 0))
    for layer in COUNTED + TIMED:
        values[f"{layer}.self_ms"] = med(lambda r: r["self_ms"].get(layer, 0.0))
    values["hermitian.eigh_coefficient_space.mean_dim"] = med(lambda r: r["mean_coefficient_dim"])
    values["sdp.newton_steps"] = med(lambda r: r["newton_steps"])
    values["sdp.newton_per_call"] = med(lambda r: r["newton_steps"] / r["sdp_calls"] if r["sdp_calls"] else 0.0)
    values["sdp.numerical_failures"] = med(lambda r: r["numerical_failures"])
    values["sdp.useful_frac"] = med(lambda r: r["useful"] / r["sdp_calls"] if r["sdp_calls"] else 0.0)
    values["spectrahedron.face_rounds"] = med(lambda r: r["face_rounds"])
    values["trace.overhead_frac"] = overhead
    return {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
