"""Per-layer metrics of a traced run, named ``<module>.<entry>.<quantity>``.

README.md beside this file states which end-to-end metric each one should
move, on which workload.
"""

from __future__ import annotations

from speed import adjusted

# entry points reported with calls, self time and total (inclusive) time
ENTRY_POINTS = (
    "approx.value_set",
    "approx.distance",
    "series.newton_root",
    "series.invert",
    "artin.transform_inseparable",
    "artin.as_root",
    "artin.imperfection_witness",
    "artin.sigma_sample",
    "kummer.kummer_family",
    "kummer.transform_mixed",
    "certfile.read_certificate_file",
    "certfile.verify_certificate",
)
SERIES_OPS = tuple(f"series.{mode}.{op}" for mode in ("equal", "mixed") for op in ("add", "sub", "mul"))
ERROR_LAYERS = ("cli", "fields", "approx", "series", "artin", "kummer", "certfile")


def merged_dump(traced):
    """The tracer dump of a traced worker result; for cli-sample, the sum
    over the job processes."""
    if "tracer" in traced:
        return traced["tracer"]
    out = {"agg": {}, "counts": {}, "errors": {}, "ffield_ops": 0, "extrat_ops": 0,
           "enum_distinct": 0, "enum_unique_listed": 0}
    for job in traced["jobs"]:
        d = job.get("trace", {}).get("dump")
        if d is None:
            continue
        for name, (calls, self_s, total_s) in d["agg"].items():
            a = out["agg"].setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += self_s
            a[2] += total_s
        for key in ("counts", "errors"):
            for name, n in d[key].items():
                out[key][name] = out[key].get(name, 0) + n
        for key in ("ffield_ops", "extrat_ops", "enum_distinct", "enum_unique_listed"):
            out[key] += d[key]
    return out


def _job_ref_s(res):
    """Summed job time of a worker result, in reference seconds."""
    return sum(adjusted(j["wall"], j["ref"]) for j in res["jobs"])


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(traced, plain):
    """name -> (value, unit), in the order of BENCHMARK.json's per_layer."""
    d = merged_dump(traced)
    agg, counts = d["agg"], d["counts"]

    def calls(name):
        return agg.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[1]

    def total_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    m = {}
    for name in ENTRY_POINTS:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
        m[f"{name}.total_s"] = (total_s(name), "s")
    scanned = counts.get("approx.value_set.elements_scanned", 0)
    m["approx.value_set.elements_scanned"] = (scanned, "count")
    m["approx.value_set.useful_frac"] = (
        _ratio(counts.get("approx.value_set.realized", 0), scanned), "frac")
    for name in SERIES_OPS:
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    enum = "fields.enumerate_elements"
    m[f"{enum}.calls"] = (calls(enum), "count")
    m[f"{enum}.self_s"] = (self_s(enum), "s")
    m[f"{enum}.total_s"] = (total_s(enum), "s")
    m[f"{enum}.listed"] = (counts.get(f"{enum}.listed", 0), "count")
    m[f"{enum}.distinct_frac"] = (_ratio(d["enum_distinct"], d["enum_unique_listed"]), "frac")
    m[f"{enum}.hit_frac"] = (_ratio(counts.get(f"{enum}.hits", 0), calls(enum)), "frac")
    m["certfile.read_certificate_file.bytes"] = (
        counts.get("certfile.read_certificate_file.bytes", 0), "bytes")
    m["certfile.verify_certificate.certs"] = (
        counts.get("certfile.verify_certificate.certs", 0), "count")
    m["certfile.write_certificate_file.total_s"] = (total_s("certfile.write_certificate_file"), "s")
    m["certfile.write_certificate_file.bytes"] = (
        counts.get("certfile.write_certificate_file.bytes", 0), "bytes")
    m["cli.main.calls"] = (calls("cli.main"), "count")
    m["cli.main.self_s"] = (self_s("cli.main"), "s")
    m["cli.build_parser.self_s"] = (self_s("cli.build_parser"), "s")
    m["ffield.ops"] = (d["ffield_ops"], "count")
    m["cuts.extrat_ops"] = (d["extrat_ops"], "count")
    for layer in ERROR_LAYERS:
        m[f"errors.{layer}"] = (d["errors"].get(layer, 0), "count")
    m["trace.overhead_frac"] = (_job_ref_s(traced) / _job_ref_s(plain) - 1.0, "frac")
    return m


def better(name: str) -> str:
    return "higher" if name.endswith(("useful_frac", "distinct_frac", "hit_frac")) else "lower"
