#!/usr/bin/env bash
# Import-boundary gate: the optimization engine must not depend on the
# serving stack, the bench harness or the metrics registry.
#
# The engine is the root facade (repro) plus internal/{rtlil, sat, aig,
# sim, cec, bdd, opt, egraph, infer, subgraph, core, genbench, verilog}.
# `go list -deps` follows imports transitively, so an indirect
# dependency fails the gate too. Test-only imports are not checked.
#
# The reverse rule — client and internal/server/api must not import the
# engine — does not hold yet: both reach it through api.FromRunReport and
# the *smartly.Design signatures. Decoupling them is out of scope here,
# so this script does not check it.
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

echo "module boundary checks passed"
