package fleet

import (
	"bytes"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

// goldenCoordinator is a journaled coordinator in a fixed state — two live
// workers, one queued and three leased jobs, every counter distinct —
// built bare: WritePromTo reads state, it needs no server behind it.
func goldenCoordinator() *Coordinator {
	jl := new(Journal)
	queued := &fleetJob{}
	c := &Coordinator{
		opts:    Options{LeaseTTL: 30 * time.Minute}, // live workers: seen within 2·TTL
		journal: jl,
		queue:   []*fleetJob{queued},
		jobs:    map[string]*fleetJob{"queued": queued, "leased-1": {}, "leased-2": {}, "leased-3": {}},
		workers: map[string]*workerState{"a": {lastSeen: time.Now()}, "b": {lastSeen: time.Now()}, "gone": {}},
	}
	for i, ctr := range []interface{ Store(uint64) }{
		&c.leasesGranted, &c.leaseExpiries, &c.requeues, &c.staleResults, &c.staleAccepted,
		&c.localJobs, &c.retriesExhausted,
		new(atomic.Uint64), // a spare slot, so the values below keep their golden numbers
		&jl.appends, &jl.appendErrors, &jl.snapshots, &jl.replayedRecords, &jl.tornTails, &jl.dupTerms,
		&c.journalReplayed, &c.journalRequeued, &c.journalSkipped,
	} {
		ctr.Store(uint64(201 + i))
	}
	return c
}

// TestMetricsExpositionGolden pins the nord_fleet_* exposition byte for
// byte (see serve's test of the same name). testdata/metrics.golden was
// rendered by the hand-unrolled writer serve.WriteSeries replaced.
func TestMetricsExpositionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	c := goldenCoordinator()
	var got bytes.Buffer
	c.WritePromTo(&got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("exposition differs from testdata/metrics.golden:\n%s", got.Bytes())
	}
	// Without a journal the journal series are absent, not zero.
	c.journal = nil
	got.Reset()
	c.WritePromTo(&got)
	if i := bytes.Index(want, []byte("# HELP nord_fleet_journal_")); !bytes.Equal(got.Bytes(), want[:i]) {
		t.Errorf("journal-less exposition is not the golden's prefix:\n%s", got.Bytes())
	}
}
