// Package serve is the multi-tenant training service behind cmd/fmserve: a
// long-lived HTTP/JSON layer over the public funcmech API.
//
// These concerns shape the package, each mapped onto a primitive the
// library already provides:
//
//   - Datasets are registered once and shared read-only across requests
//     (Registry). Registration is the only write; after that every fit reads
//     the same immutable *funcmech.Dataset, so no copy or lock is needed on
//     the hot path.
//   - Every tenant owns a lifetime privacy budget enforced by a
//     *funcmech.Session (Tenants). The session debits atomically before the
//     fit touches data, so concurrent fits against one tenant can never
//     jointly overspend ε — the sequential-composition discipline of the
//     paper, applied per tenant under concurrency.
//   - Machine capacity is arbitrated by one Governor, a pool of
//     GOMAXPROCS-derived tokens: fits in flight + ingest folds + extra
//     kernel workers never exceed the cap. A fit takes its token before it
//     is charged, so a client that gives up in the queue spends no ε; its
//     Grant implements funcmech.Governor and widens the kernel only onto
//     tokens free at that moment, so nothing waits after the charge.
//   - Every fit and refit is released from one audited site,
//     Server.release, the package's only function fmlint's
//     chargebeforenoise analyzer audits as a noise release site. Both
//     handlers first build a funcmech.Release — NewRelease from the
//     registered dataset, NewReleaseFromAccumulator from the stream's
//     merged fold — which accepts or refuses the model, options and ε at
//     the release's d, an empty fold included, before admission and before
//     the charge, so nothing the library refuses is ever charged.
//     Server.release then charges that Release and runs it.
//   - Accounting is crash-safe through a write-ahead log (internal/wal):
//     with a WAL attached, every fit and refit follows charge → journal →
//     fit, the debit fsynced to disk before any noise is drawn, and boot
//     replays whatever the tenants.json snapshot does not cover. The
//     guarantee is one-sided by construction — a hard kill may over-count a
//     tenant's lifetime ε (a journaled debit whose fit never released),
//     never under-count it, which is the side a privacy guarantee must err
//     on. Tenant registrations and stream ingest sequences are journaled
//     too, so replay can recreate the accountants it must debit and a
//     stream's sequence numbers never rewind.
//
// Request bodies are JSON by default; the two bulk-data endpoints
// (stream ingest and dataset registration) also negotiate the fmbin
// binary frame via Content-Type: application/x-fmbin — see docs/FORMAT.md
// for the format and docs/ARCHITECTURE.md for the system map and the
// data-sensitivity table consolidating this package's durability and
// privacy notes.
//
// Server wires the four into an http.Handler with typed JSON errors. Open
// restores one from its snapshots and journal, Checkpoint saves it and
// compacts the journal, and Close runs the final pass (wal.go); cmd/fmserve
// adds only flags, listeners, signals and a ticker that calls Checkpoint.
package serve
