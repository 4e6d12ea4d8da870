package resultstore

import "testing"

// Probe is the fleet coordinator's dispatch check: true only for
// committed (or seeded) results — an in-flight Acquire must read as
// absent so the coordinator does not serve it locally as a "hit" and
// block on someone else's computation.
func TestMemoryProbe(t *testing.T) {
	m := NewMemory()
	k, res := SyntheticRecord(0)
	if m.Probe(k) {
		t.Fatal("empty store probes true")
	}
	e, _ := m.Acquire(k)
	if m.Probe(k) {
		t.Fatal("in-flight (acquired, uncommitted) entry probes true")
	}
	e.Once.Do(func() {
		e.Res = res
		m.Commit(k, res, nil)
		e.MarkDone()
	})
	if !m.Probe(k) {
		t.Fatal("committed entry probes false")
	}
}

// Disk.Probe reaches through every tier: resident memory, and records
// still cold in a compacted v2 segment (faulted in by the probe).
func TestDiskProbeFaultsFromSegment(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for i := 0; i < 8; i++ {
		k, res := SyntheticRecord(i)
		e, _ := d.Acquire(k)
		e.Once.Do(func() {
			e.Res = res
			d.Commit(k, res, nil)
			e.MarkDone()
		})
		keys = append(keys, k)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := Compact(dir); err != nil {
		t.Fatal(err)
	}
	// A fresh open holds nothing in memory; the probe must fault the
	// covering v2 block in rather than report a persisted record absent.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for i, k := range keys {
		if !re.Probe(k) {
			t.Errorf("persisted record %d probes false after reopen", i)
		}
	}
	miss, _ := SyntheticRecord(99)
	if re.Probe(miss) {
		t.Error("absent key probes true")
	}
}

// Seeded entries (restart reloads) probe true without MarkDone: the
// result is already authoritative.
func TestProbeSeededEntries(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k, res := SyntheticRecord(3)
	e, _ := d.Acquire(k)
	e.Once.Do(func() {
		e.Res = res
		d.Commit(k, res, nil)
		e.MarkDone()
	})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Probe(k) {
		t.Error("reloaded (seeded) record probes false")
	}
}
