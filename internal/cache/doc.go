// Package cache is the content-addressed result cache behind the
// smartlyd serving layer (internal/server).
//
// Results are keyed at two granularities:
//
//   - Key addresses a whole-design payload: the canonical design hash
//     (rtlil.CanonicalHashDesign), the normalized flow script
//     (opt.Flow.Canonical) and the request-level option set.
//   - ModuleKey addresses one module's payload (canonical module hash +
//     flow + options) — the module-granular tier behind design-mode
//     sharding, where a resubmitted design with one edited module
//     re-optimizes only that module. Its ids are domain-separated from
//     Key's, so the two granularities can never collide.
//
// Two requests hit the same entry exactly when they are guaranteed to
// produce the same bytes: the engine's results are bit-identical for
// every worker count, and so for every split of it between modules,
// which is why neither is part of any key.
//
// The cache has two tiers:
//
//   - a memory tier: an LRU bounded by total value bytes, and
//   - an optional disk tier (New's dir argument): every stored value is
//     also written to dir, memory misses are refilled from it, and
//     entries survive both memory eviction and process restarts. Disk
//     entries are framed with a checksum; ones damaged at rest
//     (truncated, corrupted) are detected on read, dropped and served
//     as a miss — reads fail soft, never with wrong bytes or an error.
//
// Do adds request coalescing: concurrent calls for the same key run the
// compute function once and share its result, so a thundering herd of
// identical submissions costs one optimization run.
//
// Values are opaque []byte; the server stores its serialized response
// payload (optimized netlist JSON + run reports). All methods are safe
// for concurrent use.
package cache
