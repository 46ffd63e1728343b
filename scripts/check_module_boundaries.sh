#!/usr/bin/env bash
# Import-boundary gate: the optimization engine must not depend on the
# serving stack, the bench harness or the metrics registry, and the wire
# types (internal/server/api) must not depend on the engine.
#
# The engine is the root facade (repro) plus internal/{rtlil, sat, aig,
# sim, cec, bdd, opt, egraph, infer, subgraph, core, genbench, verilog}.
# `go list -deps` follows imports transitively, so an indirect
# dependency fails the gate too. Test-only imports are not checked.
#
# client still reaches the engine through OptimizeDesign's *smartly.Design
# signature, so the reverse rule is checked for internal/server/api only.
#
# Usage: scripts/check_module_boundaries.sh
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

fail() {
  echo "boundary check failed: $1" >&2
  exit 1
}

engine=(repro)
for pkg in rtlil sat aig sim cec bdd opt egraph infer subgraph core genbench verilog; do
  engine+=("repro/internal/$pkg")
done

forbidden='^repro/(client|internal/server(/.*)?|internal/cache|internal/harness|internal/metrics)$'

for pkg in "${engine[@]}"; do
  deps="$(go list -deps "$pkg")"
  if bad="$(grep -E "$forbidden" <<<"$deps")"; then
    fail "$pkg depends on $(tr '\n' ' ' <<<"$bad")"
  fi
done

engine_re="^($(IFS='|'; echo "${engine[*]}"))$"
if bad="$(go list -deps repro/internal/server/api | grep -E "$engine_re")"; then
  fail "repro/internal/server/api depends on $(tr '\n' ' ' <<<"$bad")"
fi

echo "module boundary checks passed"
