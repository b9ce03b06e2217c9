#!/usr/bin/env bash
# Pre-PR gate: build and test the optimized configuration and a sanitized
# Debug configuration (ASan + UBSan, no recovery), then run the static
# lint gate (tools/lint.sh). Run from the repository root:
#
#   tools/check.sh [jobs]
#
# `jobs` drives BOTH compilation and test parallelism; set
# CTEST_PARALLEL_LEVEL to override test parallelism alone. Every phase
# reports its wall-clock time. All phases must be green before a change
# ships.
set -euo pipefail

if ! command -v cmake >/dev/null 2>&1; then
  echo "check.sh: cmake not found on PATH; install CMake >= 3.16" >&2
  exit 1
fi

jobs="${1:-$(nproc)}"
test_jobs="${CTEST_PARALLEL_LEVEL:-${jobs}}"
cd "$(dirname "$0")/.."

phase_start=0
phase_name=""
phase() {
  phase_end
  phase_name="$1"
  phase_start=$(date +%s)
  echo "=== ${phase_name} ==="
}
phase_end() {
  if [ -n "${phase_name}" ]; then
    echo "--- ${phase_name}: $(($(date +%s) - phase_start))s"
  fi
}

phase "Release build + tests"
# The sanitized Debug leg below also runs the Debug per-lane cross-check
# of the direct eval path against the scalar reference.
cmake -B build-check-release -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build-check-release -j "${jobs}"
ctest --test-dir build-check-release --output-on-failure -j "${test_jobs}"

phase "Sanitized (ASan+UBSan) Debug build + tests"
cmake -B build-check-sanitize -S . -DCMAKE_BUILD_TYPE=Debug -DSPIRE_SANITIZE=ON
cmake --build build-check-sanitize -j "${jobs}"
ctest --test-dir build-check-sanitize --output-on-failure -j "${test_jobs}"

phase "Thread-safety static gate (clang++ -Wthread-safety, DESIGN.md §13)"
# Configuring with SPIRE_THREAD_SAFETY=ON runs the tests/compile_fail/
# try_compile fixtures at configure time (each must be rejected with a
# thread-safety diagnostic) and builds the whole tree with the analysis
# promoted to errors. Clang-only: skipped with a NOTE locally when no
# clang++ is installed, hard-failed on CI (the CI image provides clang).
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-check-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DSPIRE_THREAD_SAFETY=ON
  cmake --build build-check-tsa -j "${jobs}"
elif [ "${CI:-false}" = "true" ]; then
  echo "check.sh: clang++ not installed but CI=true — the thread-safety" \
       "gate must run on CI" >&2
  exit 1
else
  echo "check.sh: NOTE: clang++ not installed, skipping the thread-safety" \
       "static gate (CI runs it)"
fi

phase "Binary model v4 round-trip (spire_cli compile)"
# Compile every checked-in text model to the binary v4 image and back; the
# text bytes must survive unchanged. Images live in a throwaway directory —
# testdata/models/ is linted as-is and must stay clean.
roundtrip_dir=$(mktemp -d)
trap 'rm -rf "${roundtrip_dir}"' EXIT
cli=build-check-release/tools/spire_cli
for model in testdata/models/*.model; do
  base=$(basename "${model}" .model)
  "${cli}" compile "${model}" --out "${roundtrip_dir}/${base}.bin"
  "${cli}" compile --text "${roundtrip_dir}/${base}.bin" \
    --out "${roundtrip_dir}/${base}.model"
  diff "${model}" "${roundtrip_dir}/${base}.model"
  # Images must also pass the static lint gate (binary-load,
  # flat-structure) on top of the geometric rules.
  "${cli}" lint "${roundtrip_dir}/${base}.bin"
done

phase "spire_cli rejects undeclared flags"
# A flag a command does not declare is a usage error (exit 2), never a
# flag that swallows the next token: here that token is a model which
# fails lint on its own, so a swallowed one would exit 0.
set +e
"${cli}" lint testdata/models/handwritten.model --bogus \
  testdata/lint/empty.model > /dev/null 2> "${roundtrip_dir}/bogus.err"
bogus_rc=$?
set -e
if [ "${bogus_rc}" != 2 ] ||
  ! grep -q -- "--bogus" "${roundtrip_dir}/bogus.err"; then
  echo "check.sh: expected exit 2 naming --bogus, got ${bogus_rc}" >&2
  exit 1
fi

phase "Registry smoke (publish / resolve / serve by content id)"
# Publish a checked-in model to a throwaway registry, resolve it by the
# printed content id, and serve a workload through the zero-copy mmap path;
# the same estimate must come out of the --model (compiled) path.
registry_root="${roundtrip_dir}/registry"
model=testdata/models/trained_parboil.model
id=$("${cli}" registry publish "${model}" --registry-root "${registry_root}")
"${cli}" registry list --registry-root "${registry_root}" | grep -q "${id}"
# Publishing the text model and its compiled v4 image must converge on
# the same content id.
"${cli}" compile "${model}" --out "${roundtrip_dir}/registry_smoke.bin"
id2=$("${cli}" registry publish "${roundtrip_dir}/registry_smoke.bin" \
  --registry-root "${registry_root}")
if [ "${id}" != "${id2}" ]; then
  echo "check.sh: registry ids diverged: ${id} vs ${id2}" >&2
  exit 1
fi
"${cli}" estimate --registry "${id}" --registry-root "${registry_root}" \
  testdata/models/parboil.samples.csv > "${roundtrip_dir}/by_registry.txt"
"${cli}" estimate --model "${model}" \
  testdata/models/parboil.samples.csv > "${roundtrip_dir}/by_model.txt"
diff "${roundtrip_dir}/by_registry.txt" "${roundtrip_dir}/by_model.txt"

phase "Server smoke (publish / serve / estimate over socket / swap / drain)"
# Full resident-server lifecycle against the release CLI: publish a model,
# boot a background server on a UNIX socket, estimate through it (the
# result must match the local --model path bit-for-bit), hot-swap the
# slot, then SIGTERM it and require a clean drain (exit 0).
server_socket="${roundtrip_dir}/server.sock"
"${cli}" serve --socket "${server_socket}" \
  --registry-root "${registry_root}" --model latest \
  2> "${roundtrip_dir}/server.log" &
server_pid=$!
for _ in $(seq 1 100); do
  [ -S "${server_socket}" ] && break
  sleep 0.1
done
"${cli}" serverctl ping --server "${server_socket}"
"${cli}" estimate --server "${server_socket}" \
  testdata/models/parboil.samples.csv > "${roundtrip_dir}/by_server.txt" \
  2> /dev/null
diff "${roundtrip_dir}/by_server.txt" "${roundtrip_dir}/by_model.txt"
"${cli}" serverctl swap --server "${server_socket}" | grep -q "generation 2"
"${cli}" serverctl stats --server "${server_socket}" > /dev/null
kill -TERM "${server_pid}"
if ! wait "${server_pid}"; then
  echo "check.sh: server did not drain cleanly on SIGTERM" >&2
  cat "${roundtrip_dir}/server.log" >&2
  exit 1
fi
grep -q "drained cleanly" "${roundtrip_dir}/server.log"
# The client's retry ladder must surface an unreachable server as exit 3.
set +e
"${cli}" serverctl ping --server "${server_socket}" 2> /dev/null
ping_rc=$?
set -e
if [ "${ping_rc}" != 3 ]; then
  echo "check.sh: expected exit 3 for unreachable server, got ${ping_rc}" >&2
  exit 1
fi

phase "Stdio server drains on SIGTERM while stdin stays open"
# A --stdio server whose stdin is a fifo this script keeps open never sees
# EOF; SIGTERM alone must drain it, exit 0, within its drain timeout + 2 s.
stdio_fifo="${roundtrip_dir}/stdio.fifo"
stdio_drain_ms=2000
rm -f "${stdio_fifo}"
mkfifo "${stdio_fifo}"
"${cli}" serve --stdio --registry-root "${registry_root}" --model latest \
  --drain-timeout-ms "${stdio_drain_ms}" < "${stdio_fifo}" > /dev/null \
  2> "${roundtrip_dir}/stdio.log" &
stdio_pid=$!
exec 9> "${stdio_fifo}"  # the write end stays open until the server exits
# serve installs its signal handlers before it prints that line.
for _ in $(seq 1 100); do
  grep -q "serving model" "${roundtrip_dir}/stdio.log" && break
  sleep 0.1
done
kill -TERM "${stdio_pid}"
stdio_limit_ms=$((stdio_drain_ms + 2000))
stdio_waited_ms=0
while kill -0 "${stdio_pid}" 2> /dev/null &&
  [ "${stdio_waited_ms}" -lt "${stdio_limit_ms}" ]; do
  sleep 0.1
  stdio_waited_ms=$((stdio_waited_ms + 100))
done
if kill -0 "${stdio_pid}" 2> /dev/null; then
  kill -KILL "${stdio_pid}"
  exec 9>&-
  echo "check.sh: --stdio server still running ${stdio_limit_ms} ms" \
    "after SIGTERM" >&2
  exit 1
fi
set +e
wait "${stdio_pid}"
stdio_rc=$?
set -e
exec 9>&-
if [ "${stdio_rc}" != 0 ]; then
  echo "check.sh: --stdio server exited ${stdio_rc} after SIGTERM" >&2
  cat "${roundtrip_dir}/stdio.log" >&2
  exit 1
fi

phase "Serving perf smoke (bench/perf_serving + bench/perf_server)"
./build-check-release/bench/perf_serving --smoke
./build-check-release/bench/perf_server --smoke

phase "Static lint gate (tools/lint.sh)"
SPIRE_LINT_BUILD_DIR=build-check-release tools/lint.sh "${jobs}"

phase_end
# A bench assertion that silently skipped (too few hardware threads, smoke
# mode) must be visible in the gate's output, not buried in the JSON.
for bench_json in BENCH_*.json; do
  [ -f "${bench_json}" ] || continue
  if grep -q '"status": "skipped"' "${bench_json}"; then
    echo "NOTE: ${bench_json} has skipped assertion(s):"
    grep -o '"[a-z_]*_assertion": {[^}]*}' "${bench_json}" \
      | grep '"status": "skipped"' || true
  fi
done
echo "check.sh: all green"
