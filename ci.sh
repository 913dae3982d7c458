#!/usr/bin/env sh
# CI gate: formatting, lints, the full test suite, and a smoke run of the
# serving benchmark (which refreshes BENCH_serving.json at the repo root).
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q --workspace

echo "==> frozen-equivalence (serving artifact vs live tape; JSON/bin/mmap bit-identity)"
cargo test -q -p odnet-core --test frozen_equivalence

echo "==> GEMM bit-exactness (every SIMD level == sequential-k oracle)"
# Every kernel level the host can run (scalar, plus AVX2 when detected)
# against a plain sequential-k reference over a shape sweep, then the
# golden fixture: a committed tiny .odz must load owned and mmapped with
# the same score bits and the same meta checksum on every build.
cargo test -q -p od-tensor --test gemm_bitexact
cargo test -q -p odnet-core --test golden_fixture

echo "==> artifact corruption robustness (.odz loader rejects tampered files)"
cargo test -q -p odnet-core --test artifact_corruption

echo "==> artifact round trip: freeze -> mmap -> serve (bit-exact)"
# Freezes an untrained artifact in both formats, then serves from the
# mmap'd .odz; --check fails the gate unless engine responses are
# bit-identical to direct scoring against the same mapped tables.
cargo run --release --bin odnet -- freeze --out target/ci_artifact
cargo run --release --bin odnet -- serve-bench --artifact target/ci_artifact.odz \
    --workers 2 --requests 1000 --check

echo "==> artifact cold-start smoke (JSON vs owned read vs mmap)"
# Small-universe run of the cold-start experiment: asserts all three load
# paths score bit-identically and mmap beats the JSON parse, without
# touching the committed paper-scale BENCH_artifact.json.
CRITERION_QUICK=1 cargo bench -p od-bench --bench artifact_bench

echo "==> serving bench (smoke)"
CRITERION_QUICK=1 cargo bench -p od-bench --bench serving_bench

echo "==> retrieval equivalence (SIMD top-k bit-exact vs scalar oracle)"
# Property suite: AVX2/NEON kernels visit the exact same pairs as the
# scalar oracle (live-threshold contract), owned == mmap tables, and the
# hot-swap case (index rebuilt from the published generation).
cargo test -q -p od-retrieval

echo "==> pruned recall gate (recall@64 >= 0.99 at >= 5x scan reduction)"
cargo test -q -p od-retrieval --test recall_gate

echo "==> retrieval bench (smoke)"
# Small-universe run of the SIMD/pruned/funnel experiments with the same
# exactness assertions as the full run, without touching the committed
# paper-scale BENCH_retrieval.json (gates there: SIMD >= 2x scalar,
# recall@64 >= 0.99, >= 5x fewer candidates scanned).
CRITERION_QUICK=1 cargo bench -p od-bench --bench retrieval_bench

echo "==> full-funnel smoke (retrieve -> rank through a mmap'd artifact)"
# Drives the retrieval tier + micro-batching ranker end to end; --check
# fails the gate unless every response is full (exactly top-k pairs),
# rank-ordered, and stamped with consistent retrieval/ranking versions.
cargo run --release --bin odnet -- serve-bench --artifact target/ci_artifact.odz \
    --funnel --check --requests 500

echo "==> observability unit + property suites (od-obs)"
cargo test -q -p od-obs

echo "==> Prometheus exposition lint (render -> parse-back reconciliation)"
# Renders a populated registry to text exposition and parses it back,
# asserting bucket monotonicity, label round-trips, and +Inf == _count.
cargo test -q -p od-obs --test exposition

echo "==> throughput smoke (engine vs direct scoring, coalescing engaged)"
# Tiny model, 2 workers, 2k requests; --check fails the gate unless every
# engine response is bit-identical to single-threaded scoring,
# cross-request coalescing merged at least one batch, and the stage clock
# populated the queue-wait / forward / end-to-end histograms. The JSON
# snapshot is written while the engine is live (gauges still set).
cargo run --release --bin odnet -- serve-bench --workers 2 --requests 2000 \
    --check --metrics-json target/metrics_snapshot.json

echo "==> metrics overhead gate (stage clock + request tracing within 3%)"
# Back-to-back on/off pairs for the stage clock, the request-scoped
# tracer (10ms tail threshold, 1-in-64 sampling), and hot-swapping;
# ODNET_OVERHEAD_GATE=1 fails the run unless each best pair is >= 0.97.
CRITERION_QUICK=1 ODNET_OVERHEAD_GATE=1 cargo bench -p od-bench --bench throughput_bench

echo "==> trace capture smoke (tracer on under load, span trees well-formed)"
# serve-bench with the production tracer config; --check fails the gate
# unless traces reached the ring and every captured span tree is
# well-formed (one root, unique ids, children nested in their parent).
cargo run --release --bin odnet -- serve-bench --workers 2 --clients 8 \
    --requests 2000 --trace --check

echo "==> chaos suite (panic isolation, deadlines, supervision, hot swaps)"
# Includes the swap chaos tests: distinct-content generations published
# under 8-thread load with every response checked against the artifact
# version its stamp records, grace-period reclamation (Weak-based), an
# in-flight batch pinned to its generation across a publish, and
# publish-vs-teardown races.
cargo test -q -p od-serve --test chaos

echo "==> fault-injection smoke (3 worker panics under load)"
# Fixed fault seed (batches 3, 7, 11); --check fails the gate unless the
# run survived with zero lost tickets, bit-exact surviving responses, and
# health counters (worker panics, respawns, pool size) reconciling with
# the injected fault count.
cargo run --release --bin odnet -- serve-bench --workers 2 --clients 8 \
    --requests 2000 --inject-panics 3 --check

echo "==> hot-swap smoke (publishes under load, zero lost tickets)"
# A publisher thread hot-swaps a content-identical generation every 250
# completed requests; --check fails the gate unless at least one swap
# landed, the publish history reconciles (health vs load generator vs
# artifact epoch), responses stayed bit-exact across every swap, and no
# ticket was lost.
cargo run --release --bin odnet -- serve-bench --workers 2 --clients 8 \
    --requests 2000 --swap-every 250 --check

echo "==> http parser fuzz table + socket chaos suite (od-http)"
# Strict-parser table tests (truncated lines, bare LFs, smuggling,
# oversized heads/bodies, bad chunked framing -> typed 400/413/431/505,
# never a panic), then the socket suite: half-open connections, slow
# loris, byte-at-a-time writers, mid-body disconnects, connection-cap
# floods, and injected worker panics under 8-client load — zero lost
# responses, 200 bodies bit-exact with in-process scoring, graceful
# drain answering all in-flight work before the listener closes.
cargo test -q -p od-http

echo "==> http serving e2e smoke (freeze -> serve --artifact -> drain)"
# Boots the real HTTP tier over the frozen .odz from the artifact gate
# above and drives every route over a socket: scores bit-exact with
# direct scoring, both funnel stages stamped with the loaded artifact's
# generation, readiness + od_http_* exposition, then a clean drain.
cargo run --release --bin odnet -- serve --artifact target/ci_artifact.odz --smoke

echo "==> online loop smoke (drift -> retrain -> freeze -> publish)"
# Two simulated days through a live engine: serve, fold the click stream
# into training, freeze to .odz, hot-publish, repeat. Exercises the full
# odnet online path end to end.
cargo run --release --bin odnet -- online --rounds 2 --panel 10 --users 40 \
    --cities 12 --out-dir target/ci_online --metrics-jsonl target/ci_online/rounds.jsonl

echo "CI OK"
