#!/usr/bin/env bash
# Prints, for each binary given, where the linker placed
# `core::str::converts::from_utf8` and that address mod 64.
#
# Until the JSON shim decodes strings in linear time, perfbench's
# `setup_s` and `proto.decode_register_ms` are dominated by calls to
# this function, and their speed depends on its placement: at 0 mod 64,
# decoding has run about 1.6-2x slower than at other offsets. Compare
# this output for two builds before blaming a code change for a
# `setup_s` shift.
#
# Usage: bash scripts/utf8_placement.sh <binary>...
#   e.g. bash scripts/utf8_placement.sh perfbench/target/release/perfbench
#        bash scripts/utf8_placement.sh parent/perfbench/target/release/perfbench \
#            change/perfbench/target/release/perfbench
set -euo pipefail

[ $# -gt 0 ] || { echo "usage: utf8_placement.sh <binary>..." >&2; exit 1; }

for BIN in "$@"; do
    [ -f "$BIN" ] || { echo "no such binary: $BIN" >&2; exit 1; }

    # `nm -C` prints "<hex address> <type> <demangled name>"; keep the
    # function itself, not its closures or other monomorphized helpers.
    LINES=$(nm -C "$BIN" | awk '$3 == "core::str::converts::from_utf8"')
    [ -n "$LINES" ] || { echo "core::str::converts::from_utf8 not found in $BIN" >&2; exit 1; }

    while read -r addr _type _name; do
        printf '%s: core::str::converts::from_utf8 at 0x%s (mod 64 = %d)\n' \
            "$BIN" "$addr" $(( 16#$addr % 64 ))
    done <<< "$LINES"
done
