// Package fleet federates nvmserve into a coordinator/worker cluster:
// the distributed sweep fabric behind ROADMAP item 1. A Coordinator
// plugs into session.Manager as its batch Executor, so every sweep and
// plan round submitted over the existing /v1/sweeps and /v1/plans API
// is sharded into chunks of engine jobs and dispatched over HTTP to
// registered workers — with streams, deterministic ordering,
// cancellation and error text byte-identical to a local run.
//
// The shared dedup tier is the fingerprint-keyed result store: the
// coordinator derives each job's cache key once per batch, probes its
// store with it before dispatching a point (the resultstore.Prober
// seam — a disk store answers for every previous process too) and
// serves resident points locally; only cold points travel. Workers
// evaluate chunks through their own engine (with its own cache) and
// post the records back as store block frames; the coordinator checks
// each record's key against the one it derived and commits it through
// engine.CommitRemote, so a point any worker evaluated is every later
// sweep's cache hit, and identical points dispatched by concurrent
// sessions are coalesced fleet-wide (an in-flight table parks
// duplicates until the first dispatch lands).
//
// Dispatch is windowed so sweeps scale to 100k+ points: instead of
// sharding a batch into all its chunks upfront, the coordinator
// registers one chunkSource per batch (the remaining expansion-index
// runs), and a worker's pull carves the next chunks from it, never
// leaving that worker more than 4 in flight (maxWorkChunks) — chunk
// bookkeeping is O(workers x 4) regardless of sweep size. Chunk size
// adapts per worker: an EWMA of measured points/sec (workers
// self-report elapsed_us per chunk) sizes the next carve to ~4 poll
// windows of that worker's throughput, clamped to [1, 256] with a tail
// guard; the static formula only seeds the cold start. Workers pull up
// to 4 chunks per long-poll and post their results coalesced into one
// binary body to /fleet/v1/results.
// Coordinator and workers ship as one binary and speak one
// ProtocolVersion: a join carrying any other version is refused with
// 409 Conflict, and a refused worker's Run returns the refusal instead
// of retrying. GET /fleet/v1/stats exposes the straggler/saturation
// analyzer: per-worker throughput, in-flight chunks, last chunk size
// and p50/p95 per-point latency, with workers beyond
// DefaultStragglerFactor x the fleet median p50 flagged as stragglers.
//
// Scheduling is carve on pull: a worker's long-poll on /fleet/v1/work
// is the only place chunks are created and handed out. It first takes
// the chunks re-queued from dead or departed workers, oldest first,
// then carves fresh ones sized for the puller from the front batch.
// Nothing is pre-assigned, so there is nothing to rebalance: a fast
// worker simply comes back for more sooner, and a straggler holds only
// what it pulled. Workers heartbeat; one that goes silent past the
// dead interval has its in-flight chunks re-queued whole for the next
// pull (points are pure and commits are singleflight, so a zombie
// worker's late result is simply discarded). With no live workers the
// coordinator reclaims its chunks and evaluates locally — a fleet of
// zero degenerates to exactly the single-process path.
//
// The failure model composes with internal/faultline: a worker whose
// disk store degrades (append path down, serving read-only from
// memory) self-evicts — it finishes and posts its current chunk,
// deregisters, and exits — so a machine with a failing disk drains
// from the fleet instead of silently computing results that will not
// persist. The wire protocol (protocol.go) is strict throughout. Its
// JSON documents reject unknown fields at every nesting level, exactly
// like the scenario, traffic and faultline codecs. A result body must
// decode whole, and each of its chunks must answer the chunk it names —
// a bad CRC, a record count or failed index that does not fit, or a
// record under another point's key fails that chunk alone.
package fleet
