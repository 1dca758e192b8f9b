#!/usr/bin/env bash
# Full pre-merge check: tier-1 tests (Release) plus the thread-safety
# analysis build and the AddressSanitizer and ThreadSanitizer configurations.
#
#   tools/check.sh            # lint + tier-1 + -Werror + thread-safety
#                             #   + ASan + TSan + UBSan
#   tools/check.sh --fast     # lint + tier-1 only
#
# The thread-safety stage compiles the tree with Clang's -Wthread-safety as
# errors (DESIGN §13): every DODUO_GUARDED_BY field access and
# REQUIRES/ACQUIRE/RELEASE contract is checked statically. It needs clang++
# and is skipped with a notice when none is on PATH (the annotations are
# no-ops elsewhere, so nothing regresses silently between environments with
# and without Clang — CI always has one).
#
# ASan covers the strided-view kernels and workspace arena reuse (out-of-
# bounds writes through MutMatView would corrupt neighbouring column bands
# silently) plus serve (protocol frame decoding touches raw byte buffers);
# TSan covers the thread-pool sharded kernels. UBSan covers the
# parsing/validation paths (env parsing, CSV, checkpoint decoding, tokenizer
# bounds) where integer overflow or bad shifts would otherwise pass
# silently. The ASan/TSan runs restrict themselves to the suites where the
# kernel, threading, and serving code lives: nn, transformer, and serve
# (the dynamic batcher and server are the most concurrency-dense code in
# the tree — DESIGN §12 requires the loopback stress suite to be clean
# under both). UBSan runs the tier-1 suite; the Release tier-1 runs
# everything.
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 2)"
sanitizer_filter='nn_test|transformer_test|serve_test'

echo "=== doduo_lint (project invariants, whole-program) ==="
# The linter is cheap and catches discarded Status values, stray abort/rand
# calls, raw std::mutex use, detached threads, and include hygiene before
# any compile finishes, so it runs first and is never skipped — not even
# under --fast (DESIGN §11). --all adds the cross-file passes (DESIGN §16):
# layering DAG, include cycles, serve-frame symmetry, metrics registry,
# and the hot-path allocation audit. The JSON report (SARIF-lite) lands in
# build/lint_report.json for CI annotation; the human-readable run gates.
cmake -B build -S . >/dev/null
cmake --build build -j "${jobs}" --target doduo_lint
./build/tools/doduo_lint --all --format=json . > build/lint_report.json \
  || true  # keep the report even when dirty; the gating run is next
./build/tools/doduo_lint --all .

echo "=== tier-1 (Release) ==="
cmake --build build -j "${jobs}"
ctest --test-dir build --output-on-failure -j "${jobs}"

if [[ "${1:-}" == "--fast" ]]; then
  echo "=== skipped -Werror + thread-safety + sanitizer configs (--fast) ==="
  exit 0
fi

echo "=== warning wall (-Werror, Release) ==="
cmake -B build-werror -S . -DDODUO_WERROR=ON >/dev/null
cmake --build build-werror -j "${jobs}"

echo "=== thread-safety analysis (Clang -Wthread-safety) ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-ts -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DDODUO_THREAD_SAFETY=ON >/dev/null
  cmake --build build-ts -j "${jobs}"
else
  echo "no clang++ on PATH; skipping (annotations are no-ops under GCC)"
fi

echo "=== AddressSanitizer ==="
cmake -B build-asan -S . -DDODUO_ASAN=ON >/dev/null
cmake --build build-asan -j "${jobs}" --target nn_test transformer_test \
  serve_test
(cd build-asan/tests &&
 ./nn_test --gtest_brief=1 &&
 ./transformer_test --gtest_brief=1 &&
 ./serve_test --gtest_brief=1)

echo "=== ThreadSanitizer ==="
cmake -B build-tsan -S . -DDODUO_TSAN=ON >/dev/null
cmake --build build-tsan -j "${jobs}" --target nn_test transformer_test \
  serve_test
(cd build-tsan/tests &&
 DODUO_NUM_THREADS=8 DODUO_PARALLEL_THRESHOLD=1 ./nn_test --gtest_brief=1 &&
 DODUO_NUM_THREADS=8 DODUO_PARALLEL_THRESHOLD=1 ./transformer_test \
   --gtest_brief=1 &&
 DODUO_NUM_THREADS=8 DODUO_PARALLEL_THRESHOLD=1 ./serve_test \
   --gtest_brief=1)

echo "=== UndefinedBehaviorSanitizer ==="
cmake -B build-ubsan -S . -DDODUO_UBSAN=ON >/dev/null
cmake --build build-ubsan -j "${jobs}"
echo "--- dirty-input suite (DESIGN §15: raw fixture bytes + sanitizer + robust path) ---"
# Focused gate before the full run: the malformed-CSV fixture corpus, the
# column sanitizer heuristics, confidence calibration, and the robust
# annotation path — the code that chews untrusted bytes — must be clean
# under UBSan on their own, so a regression here is named, not buried in
# the tier-1 wall of output.
ctest --test-dir build-ubsan --output-on-failure -j "${jobs}" \
  -R 'DirtyFixtures|ColumnSanitizer|NullMarker|SkipReason|CalibratedConfidence|FitTemperature|AnnotatorRobust'
ctest --test-dir build-ubsan --output-on-failure -j "${jobs}"

echo "=== all checks passed (lint + -Werror + thread-safety; ${sanitizer_filter} under ASan/TSan; tier-1 under UBSan) ==="
