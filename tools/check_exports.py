#!/usr/bin/env python3
"""Check the content of nvo_sim's trace, stats and telemetry exports.

    python3 tools/check_exports.py trace TRACE_JSON STATS_JSON
    python3 tools/check_exports.py telemetry JSONL PROM
    python3 tools/check_exports.py tamper STATS_JSON OUT_JSON

trace      the Chrome trace covers at least four subsystems (event
           categories) and the stats JSON is `nvo-stats-v1` with at
           least two epoch-series rows
telemetry  the metric exporter wrote at least two per-epoch
           `nvo-metrics-v1` JSONL snapshots, the last with samples in
           the mnm.insert_walk_depth histogram, and a Prometheus file
           with that histogram's count and a 0.99 quantile
tamper     copy a stats JSON with one more registered metric than it
           reports, which `nvo_analyze --stats` must reject

The `gate` and `must-fail` ctest tests run these on the exports of one
nvo_sim run each. Exit status: 0 when the checks hold, 1 when one
fails (an assertion), 2 on a usage error.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def trace(trace_json, stats_json):
    t = load(trace_json)
    cats = {e.get("cat") for e in t["traceEvents"] if e.get("ph") != "M"}
    assert len(cats) >= 4, f"want >=4 subsystems, got {cats}"
    s = load(stats_json)
    assert s["format"] == "nvo-stats-v1"
    rows = s["epoch_series"]["rows"]
    assert len(rows) >= 2
    print(f"trace cats={sorted(cats)} series rows={len(rows)}")


def telemetry(jsonl, prom_path):
    with open(jsonl) as f:
        lines = [json.loads(line) for line in f]
    assert len(lines) >= 2, "expected per-epoch JSONL snapshots"
    for line in lines:
        assert line["format"] == "nvo-metrics-v1"
    assert lines[-1]["hists"]["mnm.insert_walk_depth"]["count"] > 0
    with open(prom_path) as f:
        prom = f.read()
    assert "nvo_mnm_insert_walk_depth_count" in prom
    assert 'quantile="0.99"' in prom
    print(f"jsonl snapshots={len(lines)}")


def tamper(stats_json, out_json):
    d = load(stats_json)
    d["metrics"]["registered"] += 1
    with open(out_json, "w") as f:
        json.dump(d, f)


CHECKS = {"trace": trace, "telemetry": telemetry, "tamper": tamper}


def main(argv):
    if len(argv) != 3 or argv[0] not in CHECKS:
        sys.stderr.write(__doc__)
        return 2
    CHECKS[argv[0]](*argv[1:])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
