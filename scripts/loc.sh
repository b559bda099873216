#!/usr/bin/env bash
# Prints the number of non-test source lines in `crates/`: the size
# measure that simplicity changes report before and after.
#
# The rule: every `.rs` file under `crates/*/src` and `crates/*/benches`
# (the offline shims under `crates/shims` excluded), each counted up to
# its first line that starts with `#[cfg(test)]`, or in full if it has
# none. Integration tests (`crates/*/tests`) are not counted.
#
# Usage: bash scripts/loc.sh [repo-root]   (default: the current directory)
set -euo pipefail

ROOT=${1:-.}
cd "$ROOT"

find crates -path crates/shims -prune -o \
    \( -path 'crates/*/src/*' -o -path 'crates/*/benches/*' \) -name '*.rs' -print0 |
    sort -z |
    xargs -0 awk '
        FNR == 1 { counting = 1 }
        /^#\[cfg\(test\)\]/ { counting = 0 }
        counting { total++ }
        END { print total + 0 }
    ' |
    awk '{ sum += $1 } END { print sum + 0 }'  # xargs may run awk more than once
