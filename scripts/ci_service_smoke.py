#!/usr/bin/env python
"""CI smoke for the evaluation service (store + queue + HTTP API).

Boots the real service stack in one process — :class:`EvalService`
workers over a sqlite store, wrapped in the stdlib HTTP server on an
ephemeral port — then drives it exactly as a user would:

1. submit a small sweep job over a synthetic trace through HTTP and
   poll it to completion;
2. assert every returned miss count equals a direct in-process
   ``simulate_trace`` run (the service must not change results, only
   where they are computed);
3. submit the *same* grid again and assert the rerun is served
   entirely from the content-addressed store (``from_store == total``,
   zero new simulation), already ``done`` in the submit response; then
   a third time, and assert it gets the second submission's job back
   without adding a job to ``GET /jobs``;
4. query ``/results`` and assert it matches the job's result documents;
5. submit a sweep with a malformed execution knob (``"job_retries":
   "x"``) and assert it is refused with HTTP 400 and never becomes a
   job.

The service journal goes to ``--journal`` and the final ``/metrics``
document to ``--metrics`` so CI uploads both as artifacts.  Exit code 0
means every assertion held.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cache.config import CacheConfig  # noqa: E402
from repro.cache.simulator import simulate_trace  # noqa: E402
from repro.errors import ServiceError  # noqa: E402
from repro.runtime.journal import RunJournal  # noqa: E402
from repro.service.client import ServiceClient  # noqa: E402
from repro.service.jobs import build_trace_arrays  # noqa: E402
from repro.service.server import EvalService, make_server  # noqa: E402

TRACE = {
    "kind": "synthetic",
    "seed": 2026,
    "ranges": 400,
    "footprint": 16384,
    "max_size": 48,
}
SPEC = {
    "kind": "sweep",
    "trace": TRACE,
    "configs": {"sets": [8, 16, 32], "assocs": [1, 2], "line_sizes": [16, 32]},
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"  ok: {message}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--db", default="service_smoke.sqlite", help="sqlite store path"
    )
    parser.add_argument(
        "--journal",
        default="JOURNAL_service_smoke.jsonl",
        help="service run journal (JSON lines, uploaded as a CI artifact)",
    )
    parser.add_argument(
        "--metrics",
        default="METRICS_service_smoke.json",
        help="final /metrics snapshot (uploaded as a CI artifact)",
    )
    args = parser.parse_args()

    journal = RunJournal(args.journal)
    service = EvalService(args.db, workers=2, journal=journal)
    server = make_server(service)
    host, port = server.server_address
    threading.Thread(target=server.serve_forever, daemon=True).start()
    client = ServiceClient(f"http://{host}:{port}")

    try:
        with service:
            print(f"[service smoke] listening on {client.base_url}")
            check(client.health(), "health probe answers")

            record = client.wait(client.submit(SPEC), timeout=300)
            result = record.result
            n_configs = 12
            check(
                result["total"] == n_configs,
                f"sweep covers all {n_configs} configs",
            )
            check(
                result["simulated"] == n_configs,
                "cold store: every config simulated",
            )

            starts, sizes = build_trace_arrays(TRACE)
            for doc in result["results"]:
                config = CacheConfig(
                    doc["sets"], doc["assoc"], doc["line_size"]
                )
                expected = simulate_trace(config, starts, sizes)
                check(
                    doc["misses"] == expected.misses
                    and doc["accesses"] == expected.accesses,
                    f"{config.describe()} matches in-process simulation",
                )

            submitted = client.submit_job(SPEC)
            check(
                submitted.state == "done",
                "resubmission answered done in the submit response",
            )
            rerun = client.wait(submitted.id, timeout=300).result
            check(
                rerun["from_store"] == n_configs and rerun["simulated"] == 0,
                "identical resubmission served entirely from the store",
            )
            check(
                [d["misses"] for d in rerun["results"]]
                == [d["misses"] for d in result["results"]],
                "stored results identical to simulated results",
            )

            listed = len(client.jobs())
            check(
                client.submit(SPEC) == submitted.id,
                "third submission gets the answered job back",
            )
            check(
                len(client.jobs()) == listed,
                "a reused answer adds no job to GET /jobs",
            )

            items = client.results(prefix=f"misses:{result['trace_key']}:")
            check(
                len(items) == n_configs, "/results returns every stored config"
            )
            by_key = {
                f"misses:{result['trace_key']}:S{d['sets']}"
                f"A{d['assoc']}L{d['line_size']}": d["misses"]
                for d in result["results"]
            }
            check(
                {k: v["misses"] for k, v in items.items()} == by_key,
                "/results values match the job's result documents",
            )

            jobs_before = client.metrics()["jobs"]
            try:
                client.submit({**SPEC, "job_retries": "x"})
            except ServiceError as exc:
                refused = "HTTP 400" in str(exc)
            else:
                refused = False
            check(refused, "malformed job_retries refused with HTTP 400")

            metrics = client.metrics()
            check(
                metrics["jobs"] == jobs_before,
                "a refused spec never becomes a job",
            )
            check(metrics["jobs"]["done"] == 2, "both jobs recorded done")
            check(
                metrics["store"]["hits"] >= n_configs,
                "store hit counters increased on the rerun",
            )
            Path(args.metrics).write_text(json.dumps(metrics, indent=2))
    finally:
        server.shutdown()
        server.server_close()
        journal.close()

    print(
        f"[service smoke] PASS (journal: {args.journal}, "
        f"metrics: {args.metrics})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
