#!/usr/bin/env bash
# Static-analysis gate (see docs/STATIC_ANALYSIS.md):
#   1. autopn-lint   — concurrency-invariant rules over src/, bench/, tools/
#   2. header check  — every public header under src/ compiles standalone
#   3. clang-tidy + -Wthread-safety — when a clang toolchain is present;
#      prints a visible SKIPPED line otherwise (gcc-only containers).
#   4. gcc -fanalyzer over the concurrency core (src/{stm,serve,util,mc}),
#      gated by the checked-in baseline tools/lint/fanalyzer_baseline.txt.
#
# Exits nonzero on the first failing stage. Run from anywhere.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "== static-analysis: autopn-lint =="
if command -v python3 >/dev/null 2>&1; then
  python3 tools/lint/autopn_lint.py || fail=1
else
  echo "SKIPPED: python3 not found; autopn-lint rules not checked"
fi

echo "== static-analysis: header self-sufficiency =="
# The lint_headers object library holds one generated TU per header under
# src/; building it proves each header pulls in everything it needs.
header_build=build
if [ ! -f "$header_build/CMakeCache.txt" ]; then
  cmake -B "$header_build" >/dev/null
fi
if cmake --build "$header_build" --target lint_headers -- -j "$(nproc)" \
    > /tmp/autopn_lint_headers.log 2>&1; then
  echo "headers OK"
else
  cat /tmp/autopn_lint_headers.log
  echo "header self-sufficiency check FAILED"
  fail=1
fi

echo "== static-analysis: clang-tidy =="
if command -v clang-tidy >/dev/null 2>&1; then
  # compile_commands.json is exported by every build tree
  # (CMAKE_EXPORT_COMPILE_COMMANDS ON in the top-level CMakeLists).
  mapfile -t tidy_sources < <(git ls-files 'src/**/*.cpp' 2>/dev/null ||
                              find src -name '*.cpp' | sort)
  clang-tidy -p "$header_build" --quiet "${tidy_sources[@]}" || fail=1
else
  echo "SKIPPED: clang-tidy not found (gcc-only toolchain); .clang-tidy rules not checked"
fi

echo "== static-analysis: clang -Wthread-safety =="
if command -v clang++ >/dev/null 2>&1; then
  # The AUTOPN_GUARDED_BY annotations expand to clang attributes; a
  # -Wthread-safety -Werror pass upgrades the textual guarded-by audit to a
  # compiler-verified proof.
  tsa_fail=0
  while IFS= read -r f; do
    clang++ -std=c++20 -fsyntax-only -Isrc -Wthread-safety \
      -Werror=thread-safety "$f" || tsa_fail=1
  done < <(find src -name '*.cpp' | sort)
  [ "$tsa_fail" -eq 0 ] || fail=1
else
  echo "SKIPPED: clang++ not found (gcc-only toolchain); -Wthread-safety not checked"
fi

echo "== static-analysis: gcc -fanalyzer =="
# The interprocedural path analyzer over the concurrency core — the four
# directories the lint's atomic/guarded/lock-order rules police hardest.
# Findings are normalized to `<file> [-Wanalyzer-<id>]` (line numbers drop
# out so edits don't churn the baseline) and diffed against the checked-in
# baseline: anything new fails the gate; anything stale is called out so the
# baseline shrinks as real fixes land.
fanalyzer_baseline=tools/lint/fanalyzer_baseline.txt
fanalyzer_log=/tmp/autopn_fanalyzer.log
: > "$fanalyzer_log"
fanalyzer_compile_ok=1
for f in $(find src/stm src/serve src/util src/mc -name '*.cpp' | sort); do
  g++ -std=c++20 -Isrc -DAUTOPN_FAILPOINTS_ENABLED=1 -fanalyzer \
      -c "$f" -o /dev/null 2>>"$fanalyzer_log" || {
    echo "-fanalyzer compile failed for $f"
    fanalyzer_compile_ok=0
  }
done
if [ "$fanalyzer_compile_ok" -eq 1 ]; then
  current=$(sed -nE \
    's/^([^:]+):[0-9]+:[0-9]+: warning: .* (\[-Wanalyzer[^]]*\])$/\1 \2/p' \
    "$fanalyzer_log" | sort -u)
  baseline=$(grep -v '^#' "$fanalyzer_baseline" | grep -v '^$' | sort -u)
  new_findings=$(comm -23 <(printf '%s\n' "$current" | sed '/^$/d') \
                          <(printf '%s\n' "$baseline" | sed '/^$/d'))
  stale_findings=$(comm -13 <(printf '%s\n' "$current" | sed '/^$/d') \
                            <(printf '%s\n' "$baseline" | sed '/^$/d'))
  if [ -n "$new_findings" ]; then
    echo "NEW -fanalyzer findings (fix, or triage into $fanalyzer_baseline):"
    printf '%s\n' "$new_findings"
    grep -F "warning:" "$fanalyzer_log" | head -20
    fail=1
  fi
  if [ -n "$stale_findings" ]; then
    echo "stale baseline entries (no longer reported — remove them):"
    printf '%s\n' "$stale_findings"
    fail=1
  fi
  [ -z "$new_findings$stale_findings" ] && echo "-fanalyzer OK (baseline exact)"
else
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "static-analysis: FAILED"
  exit 1
fi
echo "static-analysis: all stages passed"
