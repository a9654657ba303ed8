package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openTestJournal(t *testing.T, dir string, opts JournalOptions) *Journal {
	t.Helper()
	jl, err := OpenJournal(dir, opts)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return jl
}

// TestJournalRoundTrip proves the basic replay contract: submissions,
// leases and terminals fold to the same state after a reopen, the epoch
// survives, and terminal jobs carry their state and error.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir, JournalOptions{})
	jl.Submit("j1", "key1", []byte(`{"kind":"synthetic"}`))
	jl.Submit("j2", "key2", []byte(`{"kind":"workload"}`))
	jl.Lease("j1", 1, "w1", 1)
	jl.Lease("j2", 2, "w1", 1)
	jl.Requeue("j2", 1)
	jl.Lease("j2", 3, "w2", 2)
	jl.Terminal("j1", "done", "")
	jl.Terminal("j2", "failed", "boom")
	// No Close: emulate a crash. The log alone must reconstruct the state.
	jl2 := openTestJournal(t, dir, JournalOptions{})
	if got := jl2.Epoch(); got != 3 {
		t.Fatalf("recovered epoch = %d, want 3", got)
	}
	jobs := jl2.Recovered()
	if len(jobs) != 2 {
		t.Fatalf("recovered %d jobs, want 2: %+v", len(jobs), jobs)
	}
	if jobs[0].ID != "j1" || jobs[0].State != "done" || jobs[0].Key != "key1" {
		t.Fatalf("j1 recovered wrong: %+v", jobs[0])
	}
	if jobs[1].ID != "j2" || jobs[1].State != "failed" || jobs[1].Err != "boom" || jobs[1].Attempt != 2 {
		t.Fatalf("j2 recovered wrong: %+v", jobs[1])
	}
	if string(jobs[1].Req) != `{"kind":"workload"}` {
		t.Fatalf("j2 request not preserved: %s", jobs[1].Req)
	}
}

// TestJournalTornTailTolerated crashes mid-append three ways — a line
// with no newline, a line whose checksum fails, and a truncated JSON
// payload under a stale checksum — and requires replay to keep every
// record before the tear and stop silently at it.
func TestJournalTornTailTolerated(t *testing.T) {
	for _, tear := range []struct {
		name string
		tail string
	}{
		{"no-newline", "00000000 {\"t\":\"term\",\"job\":\"j2\""},
		{"bad-crc", "deadbeef {\"t\":\"term\",\"job\":\"j2\",\"state\":\"done\"}\n"},
		{"garbage", "not a journal line at all\n"},
	} {
		t.Run(tear.name, func(t *testing.T) {
			dir := t.TempDir()
			jl := openTestJournal(t, dir, JournalOptions{})
			jl.Submit("j1", "key1", []byte(`{}`))
			jl.Submit("j2", "key2", []byte(`{}`))
			jl.Terminal("j1", "done", "")
			// Crash: append the torn tail directly to the live log.
			f, err := os.OpenFile(filepath.Join(dir, "journal.log"), os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatalf("open log: %v", err)
			}
			if _, err := f.WriteString(tear.tail); err != nil {
				t.Fatalf("write tear: %v", err)
			}
			f.Close()
			jl2 := openTestJournal(t, dir, JournalOptions{})
			if got := jl2.stats().tornTails; got != 1 {
				t.Fatalf("tornTails = %d, want 1", got)
			}
			jobs := jl2.Recovered()
			if len(jobs) != 2 {
				t.Fatalf("recovered %d jobs, want 2", len(jobs))
			}
			if jobs[0].State != "done" {
				t.Fatalf("j1 state = %q, want done (record before the tear)", jobs[0].State)
			}
			if jobs[1].State != JobStateOpen {
				t.Fatalf("j2 state = %q, want open (its terminal tore)", jobs[1].State)
			}
		})
	}
}

// TestJournalDuplicateTerminalIgnored replays a log where a stale lease's
// late report raced the active attempt: two terminal records for one job.
// The first must win and the duplicate must be counted, not applied.
func TestJournalDuplicateTerminalIgnored(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir, JournalOptions{})
	jl.Submit("j1", "key1", []byte(`{}`))
	jl.Terminal("j1", "done", "")
	jl.Terminal("j1", "failed", "late stale report")
	if got := jl.stats().dupTerms; got != 1 {
		t.Fatalf("live dupTerms = %d, want 1", got)
	}
	jl2 := openTestJournal(t, dir, JournalOptions{})
	rec := jl2.Recovered()
	if len(rec) != 1 || rec[0].State != "done" || rec[0].Err != "" {
		t.Fatalf("recovered = %+v, want single done job with no error", rec)
	}
}

// TestJournalSnapshotLogEquivalence runs the same operation sequence
// through a journal that compacts every 3 records and one that never
// compacts, and requires both replays to materialize identical state —
// the snapshot is exactly the log's fold.
func TestJournalSnapshotLogEquivalence(t *testing.T) {
	ops := func(jl *Journal) {
		for i := 0; i < 10; i++ {
			id := fmt.Sprintf("j%d", i)
			jl.Submit(id, "key"+id, []byte(`{"kind":"synthetic"}`))
			jl.Lease(id, uint64(i+1), "w1", 1)
			if i%3 == 0 {
				jl.Requeue(id, 1)
				jl.Lease(id, uint64(100+i), "w2", 2)
			}
			if i%2 == 0 {
				jl.Terminal(id, "done", "")
			}
		}
	}
	snapDir, logDir := t.TempDir(), t.TempDir()
	jlSnap := openTestJournal(t, snapDir, JournalOptions{SnapEvery: 3})
	jlLog := openTestJournal(t, logDir, JournalOptions{SnapEvery: 1 << 20})
	ops(jlSnap)
	ops(jlLog)
	if jlSnap.stats().snapshots < 2 {
		t.Fatalf("snapshotting journal compacted %d times, want >= 2", jlSnap.stats().snapshots)
	}
	// Crash both (no Close) and reopen: one replays snapshot+log, the
	// other a pure log.
	a := openTestJournal(t, snapDir, JournalOptions{})
	b := openTestJournal(t, logDir, JournalOptions{})
	ra, rb := a.Recovered(), b.Recovered()
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("snapshot+log replay diverged from pure log replay:\n%+v\nvs\n%+v", ra, rb)
	}
	if a.Epoch() != b.Epoch() {
		t.Fatalf("epochs diverged: %d vs %d", a.Epoch(), b.Epoch())
	}
}

// TestJournalTerminalRetention bounds the materialized state: terminal
// jobs beyond the retention cap are evicted oldest-first, open jobs are
// never evicted.
func TestJournalTerminalRetention(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir, JournalOptions{RetainTerminal: 3})
	jl.Submit("open1", "k", []byte(`{}`))
	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("t%d", i)
		jl.Submit(id, "k"+id, []byte(`{}`))
		jl.Terminal(id, "done", "")
	}
	jl2 := openTestJournal(t, dir, JournalOptions{RetainTerminal: 3})
	rec := jl2.Recovered()
	var open, term int
	for _, j := range rec {
		if j.State == JobStateOpen {
			open++
		} else {
			term++
		}
	}
	if open != 1 || term != 3 {
		t.Fatalf("recovered open=%d term=%d, want open=1 term=3: %+v", open, term, rec)
	}
	for _, j := range rec {
		if j.ID == "t0" || j.ID == "t1" || j.ID == "t2" {
			t.Fatalf("oldest terminal %s should have been evicted", j.ID)
		}
	}
}

// TestJournalCompactsOnOpen: repeated crash/reopen cycles must not grow
// the log — open folds it into the snapshot and truncates.
func TestJournalCompactsOnOpen(t *testing.T) {
	dir := t.TempDir()
	jl := openTestJournal(t, dir, JournalOptions{})
	for i := 0; i < 20; i++ {
		jl.Submit(fmt.Sprintf("j%d", i), "k", []byte(`{}`))
	}
	for i := 0; i < 5; i++ {
		openTestJournal(t, dir, JournalOptions{})
		fi, err := os.Stat(filepath.Join(dir, "journal.log"))
		if err != nil {
			t.Fatalf("stat log: %v", err)
		}
		if fi.Size() != 0 {
			t.Fatalf("reopen %d left %d log bytes, want 0 (compacted)", i, fi.Size())
		}
	}
	final := openTestJournal(t, dir, JournalOptions{})
	if got := len(final.Recovered()); got != 20 {
		t.Fatalf("recovered %d jobs after crash loop, want 20", got)
	}
}

// signSnapshot frames a snapshot body under a valid checksum header.
func signSnapshot(body []byte) []byte {
	sum := sha256.Sum256(body)
	return append([]byte(snapMagic+hex.EncodeToString(sum[:])+"\n"), body...)
}

// TestJournalCorruptSnapshotJobs: a checksum-valid snapshot holding a job
// the journal never writes (null, or with no ID) opens as an empty
// journal, the way a bad checksum does. The null job used to panic
// OpenJournal, so a coordinator with that snapshot could not boot.
func TestJournalCorruptSnapshotJobs(t *testing.T) {
	for _, body := range []string{
		`{"epoch":1,"seq":1,"jobs":[null]}`,
		`{"epoch":1,"seq":2,"jobs":[{"id":"j1","key":"k","state":"open","seq":1},{"key":"k","state":"open","seq":2}]}`,
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), signSnapshot([]byte(body)), 0o644); err != nil {
			t.Fatal(err)
		}
		jl := openTestJournal(t, dir, JournalOptions{})
		if rec := jl.Recovered(); len(rec) != 0 || jl.Epoch() != 0 {
			t.Errorf("snapshot %s: recovered epoch %d, jobs %+v; want an empty journal", body, jl.Epoch(), rec)
		}
		jl.Close()
	}
}

// FuzzJournalReplay opens a journal over an arbitrary snapshot body
// (framed under a valid checksum header when signed) and log. No input
// may panic, and a journal closed and reopened recovers what it did at
// the first open: the reopen reads back the snapshot the close compacted.
// Jobs are compared as the journal writes them, since a request's raw
// JSON is compacted on write.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte, signed bool, log []byte) {
		dir := t.TempDir()
		if signed {
			body = signSnapshot(body)
		}
		if err := os.WriteFile(filepath.Join(dir, "snapshot"), body, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.log"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		recovered := func() ([]byte, uint64) {
			jl, err := OpenJournal(dir, JournalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := jl.Close(); err != nil {
					t.Fatal(err)
				}
			}()
			jobs, err := json.Marshal(jl.Recovered())
			if err != nil {
				t.Fatal(err)
			}
			return jobs, jl.Epoch()
		}
		jobs, epoch := recovered()
		again, againEpoch := recovered()
		if !bytes.Equal(jobs, again) || epoch != againEpoch {
			t.Fatalf("reopen recovered epoch %d, %s\nfirst open: epoch %d, %s", againEpoch, again, epoch, jobs)
		}
	})
}
