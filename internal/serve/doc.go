// Package serve is the concurrent serving core: it turns the single-owner
// Index/Pipeline of the root package into an engine that serves many
// concurrent readers while the index itself advances frame by frame —
// the paper's streaming perception loop (§4.4: every LiDAR frame is
// searched against the previous frame's index) lifted to a
// multi-tenant host service.
//
// Two mechanisms do the work:
//
//   - Epoch-based immutable snapshots. Each ingested frame produces a
//     deep, immutable Index snapshot tagged with a monotonically
//     increasing epoch id. Searches run lock-free against the current
//     epoch (one atomic pointer load + one reference count), the next
//     frame's index builds or incrementally updates on a private copy in
//     the background, and the swap is a single atomic store. A retired
//     epoch is freed only after its last in-flight query drains, so
//     readers never observe a torn tree and never block the frame loop.
//
//   - Micro-batched query execution. Requests enter a bounded submission
//     queue (a full queue sheds with the typed ErrOverloaded instead of
//     queueing unboundedly); a batcher coalesces them under an adaptive
//     batch window sized from the observed arrival rate; and each
//     request of a batch runs as one Index.QueryBatchInto call — the
//     k-d tree's leaf-grouped batch executor — on as many goroutines as
//     the engine's global worker budget grants. Per-request deadlines
//     are honored between leaf groups and between bucket visits, and
//     Close drains gracefully.
//
// This mirrors how the related FPGA serving work gets its throughput
// (Dazzi et al. batch queries per device pass; Pinkham et al. pipeline
// queries per bucket): amortize per-dispatch overhead across a batch
// while keeping tail latency bounded by the window.
//
// Every stage publishes into the internal/obs metric families
// quicknn_serve_* (queue depth, batch size and latency histograms, epoch
// lag, shed counts); see docs/serving.md for the full list, the epoch
// lifecycle diagram, and the HTTP surface cmd/quicknnd puts in front of
// this package.
package serve
