#!/usr/bin/env bash
# Link-map audit: which library functions does a shipped binary reach?
#
# Builds the tree (tests, bench, examples) and perfbench/ at -O0 with
# -fno-inline, one section per function and --gc-sections at link time, so
# a function survives in an executable exactly when something reachable
# from main() references it.  Then compares `nm -C` of libhbmvolt.a with
# the linked executables:
#
#   dead       an hbmvolt:: function in the library that no shipped binary
#              (bench/, examples/, perfbench) and no test reaches;
#   test-only  one that only test binaries reach.
#
# Exits 1 when the dead list is non-empty; the test-only list is printed
# for information (hardware-model APIs and reference paths live there by
# design).  A function inlined into every caller would show up as a false
# positive, which is why inlining is off.
#
# Special members -- default, copy and move constructors, copy and move
# assignment operators, destructors -- are set aside from the test-only
# list and only counted: the compiler emits them for any class a test
# copies or destroys, and no one can delete them.  They are recognised by
# signature alone, so a user-written special member is set aside too.  The
# dead list keeps them.
#
# Usage: tools/linkmap_audit.sh [BUILD_DIR]   (default: build-linkmap)
# Needs cmake, g++, GoogleTest and Google Benchmark, like the main build.

set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${1:-$root/build-linkmap}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
jobs="$(nproc)"

flags=(
  -DCMAKE_BUILD_TYPE=Release
  "-DCMAKE_CXX_FLAGS_RELEASE=-DNDEBUG"
  "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

echo "== building the tree and perfbench/ into $out"
cmake -S "$root" -B "$out/tree" "${flags[@]}" > "$out/configure-tree.log"
cmake --build "$out/tree" -j "$jobs" > "$out/build-tree.log"
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" \
  > "$out/configure-perfbench.log"
cmake --build "$out/perfbench" -j "$jobs" > "$out/build-perfbench.log"

# Defined code symbols (T/t/W) of functions in the hbmvolt namespace --
# members, free functions and their local lambdas, chosen by mangled
# prefix so std:: templates instantiated over hbmvolt types stay out --
# demangled, sorted and de-duplicated (constructor variants collapse).
functions() {
  nm --defined-only "$@" 2>/dev/null |
    sed -nE 's/^[0-9a-f]+ [TtW] (_ZZ?N[VKRO]*7hbmvolt.*)$/\1/p' |
    c++filt | LC_ALL=C sort -u
}

# The special members among a sorted function list (see the header).
special_members() {
  { grep -E '^(.+)::([A-Za-z_][A-Za-z0-9_]*)::~?\2\(\)$' "$1" || true
    grep -E '^(.+)::([A-Za-z_][A-Za-z0-9_]*)::\2\(\1::\2( const&|&&)\)$' \
      "$1" || true
    grep -E '^(.+)::operator=\(\1( const&|&&)\)$' "$1" || true
  } | LC_ALL=C sort -u
}

executables() {
  find "$@" -maxdepth 1 -type f -perm -u+x | LC_ALL=C sort
}

perfbench="$out/perfbench/hbmvolt_perfbench"
mapfile -t shipped < <(executables "$out/tree/bench" "$out/tree/examples";
                       echo "$perfbench")
mapfile -t tests < <(executables "$out/tree/tests")
library="$(find "$out/tree/src" -name libhbmvolt.a | head -n 1)"
[[ -n "$library" && -x "$perfbench" && ${#tests[@]} -gt 0 ]] || {
  echo "linkmap audit: build products missing under $out" >&2
  exit 2
}

functions "$library" > "$out/library.txt"
functions "${shipped[@]}" > "$out/shipped.txt"
functions "${tests[@]}" > "$out/tests.txt"

LC_ALL=C comm -23 "$out/library.txt" "$out/shipped.txt" > "$out/unshipped.txt"
LC_ALL=C comm -12 "$out/unshipped.txt" "$out/tests.txt" > "$out/test_reached.txt"
LC_ALL=C comm -23 "$out/unshipped.txt" "$out/tests.txt" > "$out/dead.txt"
special_members "$out/test_reached.txt" > "$out/special.txt"
LC_ALL=C comm -23 "$out/test_reached.txt" "$out/special.txt" \
  > "$out/test_only.txt"

echo "== ${#shipped[@]} shipped binaries, ${#tests[@]} test binaries"
echo "== library functions: $(wc -l < "$out/library.txt")"
echo "== test-only: $(wc -l < "$out/test_only.txt") (reached only by tests;" \
  "$(wc -l < "$out/special.txt") special members set aside)"
sed 's/^/  /' "$out/test_only.txt"
echo "== dead: $(wc -l < "$out/dead.txt") (reached by nothing)"
sed 's/^/  /' "$out/dead.txt"
if [[ -s "$out/dead.txt" ]]; then
  echo "linkmap audit: FAIL: delete the dead functions or give them a caller" >&2
  exit 1
fi
echo "linkmap audit: PASS"
