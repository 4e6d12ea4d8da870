package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// Fingerprint returns a stable 64-bit digest of the workload's full
// content. Two workloads with equal fingerprints are (up to hash
// collision) behaviourally identical to the runner, so the digest is a
// safe memoization key for evaluation results: the concurrent sweep
// engine caches workload.Run outputs under (fingerprint, mode, threads).
//
// The encoding is canonical — map entries are folded in sorted key order
// — so the digest is independent of construction order, process and
// platform.
//
// Stability contract: the digest is persisted. Disk result stores
// (internal/resultstore) key every stored evaluation by this
// fingerprint, and TestFingerprintPersistenceContract pins the registry
// digests to catch accidental drift. What holds:
//   - Every Workload field must be folded in here, so two workloads
//     differing only in that field never collide.
//   - Any change to the encoding (a new field, a reordering, a width)
//     changes the digests, and stored records turn cold: they are
//     recomputed, never served stale. Such a change re-pins
//     TestFingerprintPersistenceContract.
//   - A solver change that keeps every digest (a memdev or dramcache
//     constant, say) has no guard: a store keeps serving the old
//     results under the same keys. No store records which solver wrote
//     it; a solver stamp is open work (ROADMAP item 11).
func (w *Workload) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	i64 := func(v int64) { u64(uint64(v)) }
	str := func(s string) {
		i64(int64(len(s)))
		h.Write([]byte(s))
	}
	scaling := func(s Scaling) {
		f64(s.ParallelFrac)
		f64(s.HTEfficiency)
	}

	str(w.Name)
	str(w.Dwarf)
	str(w.Input)
	i64(int64(w.Footprint))
	f64(float64(w.BaselineTime))
	i64(int64(w.BaseThreads))
	str(w.FoM.Name)
	str(w.FoM.Unit)
	if w.FoM.Higher {
		u64(1)
	} else {
		u64(0)
	}
	f64(w.FoM.BaseValue)

	i64(int64(len(w.Phases)))
	for _, p := range w.Phases {
		str(p.Name)
		f64(p.Share)
		f64(float64(p.ReadBW))
		f64(float64(p.WriteBW))
		i64(int64(len(p.ReadMix)))
		for _, c := range p.ReadMix {
			i64(int64(c.Pattern))
			f64(c.Weight)
		}
		i64(int64(p.WritePattern))
		i64(int64(p.WorkingSet))
		f64(p.LatencyBound)
		f64(p.AliasFactor)
		i64(int64(p.Iterations))
	}

	scaling(w.Scaling)
	names := make([]string, 0, len(w.PhaseScalings))
	for name := range w.PhaseScalings {
		names = append(names, name)
	}
	sort.Strings(names)
	i64(int64(len(names)))
	for _, name := range names {
		str(name)
		scaling(w.PhaseScalings[name])
	}

	i64(int64(w.TraceIterations))
	f64(w.HTWriteAmplification)
	f64(w.ThreadReadAmplification)
	i64(int64(len(w.Structures)))
	for _, s := range w.Structures {
		str(s.Name)
		i64(int64(s.Size))
		f64(s.ReadFrac)
		f64(s.WriteFrac)
	}
	f64(w.Work)
	u64(w.Seed)
	return h.Sum64()
}
