#!/usr/bin/env bash
# Documentation gate for the runtime environment variables: the HPRS_*
# names read through getenv/env_int/env_int_or in src/ and tests/ must be
# exactly the HPRS_* names README.md and DESIGN.md mention, not counting
# CMake option() names and #define'd macros.  A deleted knob cannot linger
# in the docs, and a new one cannot go undocumented.
#
# Usage: tests/doc_env_gate.sh <repository root>
set -euo pipefail
root="$1"

names() { grep -oE 'HPRS_[A-Z0-9_]+' | sort -u; }

# -z reads each file as one record, so a call split across lines counts.
read_vars=$(grep -rhzoP --include='*.cpp' --include='*.hpp' \
              '\b(getenv|env_int|env_int_or)\s*\(\s*"HPRS_[A-Z0-9_]+"' \
              "$root/src" "$root/tests" | tr '\0' '\n' | names)
cmake_files=$(find "$root" -path "$root/build*" -prune -o \
                \( -name CMakeLists.txt -o -name '*.cmake' \) -print)
options=$(cat $cmake_files | grep -oE 'option\(\s*HPRS_[A-Z0-9_]+' | names)
macros=$(grep -rhoE --include='*.cpp' --include='*.hpp' \
           '^\s*#\s*define\s+HPRS_[A-Z0-9_]+' \
           "$root/src" "$root/tests" "$root/bench" "$root/tools" | names)
documented=$(cat "$root/README.md" "$root/DESIGN.md" | names |
               comm -23 - <(printf '%s\n' $options $macros | sort -u))

undocumented=$(comm -23 <(echo "$read_vars") <(echo "$documented"))
stale=$(comm -13 <(echo "$read_vars") <(echo "$documented"))
status=0
if [[ -n "$undocumented" ]]; then
  echo "FAIL: read in src/ or tests/ but not named in README.md/DESIGN.md:" >&2
  echo "$undocumented" >&2
  status=1
fi
if [[ -n "$stale" ]]; then
  echo "FAIL: named in README.md/DESIGN.md but read nowhere in src/ or tests/:" >&2
  echo "$stale" >&2
  status=1
fi
if [[ "$status" == 0 ]]; then
  echo "ok: $(echo "$read_vars" | wc -l) runtime HPRS_* variables, all documented:"
  echo "$read_vars"
fi
exit "$status"
