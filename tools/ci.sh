#!/usr/bin/env bash
# CI entry point: build + test the repo seven times — a default
# RelWithDebInfo build running the full tier-1 suite plus a zen_load
# wire smoke run, a ThreadSanitizer
# build race-checking the concurrency surface (thread pool, parallel
# Mode-B pipelines, feature cache, segmentation service, streaming TIFF
# reader, the zen_net event loop with its fuzz/fault/soak suites), an
# AddressSanitizer(+UBSan) build memory-checking the same surface plus
# the TIFF fuzz corpus and the SIMD kernel backends, a standalone UBSan
# build replaying the TIFF and zen_net protocol fuzz corpora with
# recovery disabled (any UB aborts), a rerun of the default suite with
# ZENESIS_TRACE=1 so every test also exercises the observability
# recording path (seqlock rings, trace-id stitching), a rerun with
# ZENESIS_KERNEL=scalar pinning every test to the scalar reference
# backend — dispatch-parity proof that backend selection is a pure
# performance knob — and an int8 rerun (ZENESIS_PRECISION=int8) of the
# kernel suite under the ASAN and UBSan builds, so the quantized GEMM
# path (saturating requantize, SIMD tails, accuracy gate) is
# sanitizer-checked every run.
#
# Usage:
#   tools/ci.sh                # default + TSAN + ASAN + UBSAN + traced + scalar + int8
#   CI_TSAN_ALL=1 tools/ci.sh  # run the ENTIRE suite under TSAN (slow)
#   CI_ASAN_ALL=1 tools/ci.sh  # run the ENTIRE suite under ASAN (slow)
#   CI_JOBS=8 tools/ci.sh      # override build/test parallelism
#
# Exit status is non-zero if any build or test fails.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${CI_JOBS:-$(nproc)}"
# Tests exercising the concurrency and hardened-ingestion paths; extend
# when adding parallel features. CI_TSAN_ALL=1 / CI_ASAN_ALL=1 widen to
# the full suite. test_tiff matches test_tiff, test_tiff_fuzz,
# test_tiff_stream and test_tiff_codec, so the codec-aware mutation
# fuzzer (LZW/Deflate/predictor corpus), the LZW/zlib/predictor unit
# suite, and the mmap/pread byte-source suites (cross-source
# byte-equality sweep, 8-thread pread concurrency regression) all run
# under every sanitizer;
# test_cache matches test_cache, test_cache_disk and test_cache_stress,
# so the sharded-LRU contention stress and disk-tier corruption suite
# run under every sanitizer too. test_kernels puts the AVX2/blocked
# micro-kernels (tile edges, packed panels, int8 quantization) under
# ASAN/TSAN/UBSan. test_net matches test_net, test_net_fuzz,
# test_net_faults and test_net_soak: the poll() event loop, the protocol
# mutation fuzzer, the fault-injection suite and the thousand-client
# soak all run race- and leak-checked every CI run.
# test_sam matches test_sam and test_sam_decode: the box decoder fans its
# candidates out on the pool and indexes box/ROI buffers with offset
# arithmetic, so it and the cv kernels under it (filters, morphology,
# components) and the box-prompt pipeline route run race- and
# bounds-checked.
SAN_FILTER="${CI_SAN_FILTER:-test_parallel|test_volume_parallel|test_batch_images|test_serve|test_obs|test_pipeline|test_session|test_integration|test_tiff|test_cache|test_kernels|test_net|test_sam|test_filters|test_morphology|test_components|test_grounded_box}"

echo "=== [1/7] default build + full tier-1 suite ==="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"
# Wire smoke: 64 loopback clients x 2 requests through zen_net. zen_load
# exits non-zero if any request is rejected or errored; it writes under
# build/, never over the committed out/BENCH_net.json.
build/tools/zen_load --clients 64 --requests 2 --out build/ci_load >/dev/null

echo "=== [2/7] ThreadSanitizer build + concurrency suite ==="
cmake -B build-tsan -S . -DZENESIS_SANITIZE=thread \
      -DZENESIS_BUILD_BENCH=OFF -DZENESIS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j "$JOBS"
if [[ "${CI_TSAN_ALL:-0}" == "1" ]]; then
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS"
else
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -R "$SAN_FILTER"
fi

echo "=== [3/7] AddressSanitizer build + concurrency suite ==="
cmake -B build-asan -S . -DZENESIS_SANITIZE=address \
      -DZENESIS_BUILD_BENCH=OFF -DZENESIS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j "$JOBS"
if [[ "${CI_ASAN_ALL:-0}" == "1" ]]; then
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"
else
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" -R "$SAN_FILTER"
fi

echo "=== [4/7] UndefinedBehaviorSanitizer build + fuzz/corruption/kernel corpora ==="
cmake -B build-ubsan -S . -DZENESIS_SANITIZE=undefined \
      -DZENESIS_BUILD_BENCH=OFF -DZENESIS_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-ubsan -j "$JOBS"
# test_tiff here pulls in test_tiff_fuzz (7008 structure-aware mutants,
# a third of them codec-aware LZW/Deflate/predictor attacks) and
# test_tiff_codec, so the bit-twiddling decoder internals run with UB
# recovery disabled: any shift/overflow/alignment slip aborts the stage.
# test_sam/test_filters replay the decoder's golden sweep, whose box/ROI
# offset arithmetic and 16-bit column histograms must stay UB-free.
ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -R "test_tiff|test_cache|test_kernels|test_net_fuzz|test_sam|test_filters"

echo "=== [5/7] tracing-enabled rerun of the default suite (ZENESIS_TRACE=1) ==="
ZENESIS_TRACE=1 ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [6/7] scalar-backend rerun of the default suite (ZENESIS_KERNEL=scalar) ==="
ZENESIS_KERNEL=scalar ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [7/7] int8-precision kernel suite under ASAN + UBSan (ZENESIS_PRECISION=int8) ==="
# Every test in test_kernels — the int8 accuracy gate included — with
# the process-wide precision forced to int8, under both memory and UB
# sanitizers: overflow in the saturating requantize, out-of-bounds in
# the SIMD pack/unpack tails, or a quantization-induced mask drift all
# fail this stage.
ZENESIS_PRECISION=int8 ctest --test-dir build-asan --output-on-failure -j "$JOBS" -R "test_kernels"
ZENESIS_PRECISION=int8 ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" -R "test_kernels"

echo "CI OK"
