package fleet

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"nord/internal/serve"
)

// The job journal is the coordinator's write-ahead log: every submission,
// lease grant, requeue and terminal transition is appended as one
// checksummed NDJSON record before the in-memory state machine moves on.
// A SIGKILLed coordinator replays the journal on the next start, restores
// already-terminal jobs (serving their results straight from the
// content-addressed cache) and requeues everything that was open when the
// process died — the fleet analogue of NoRD's claim that the network
// survives the loss of any single router.
//
// On-disk layout under the journal directory:
//
//	journal.log   append-only records: "%08x %s\n" — CRC32(IEEE) of the
//	              JSON payload, a space, the payload. A torn final line
//	              (crash mid-append) fails its checksum and replay stops
//	              there: everything before the tear is intact by
//	              construction.
//	snapshot      materialized state: "nordsnap1 <hex sha256 of body>\n"
//	              followed by the JSON body. Written to a temp file,
//	              fsynced, then atomically renamed; the log is truncated
//	              only after the rename lands, so a crash at any point
//	              leaves a recoverable (snapshot, log-suffix) pair.
//
// Replay = load snapshot (if any) + fold the log over it. The journal
// compacts on open and on clean close, so the log never grows across
// crash loops.

// journal record types.
const (
	recSubmit  = "submit"
	recLease   = "lease"
	recRequeue = "requeue"
	recTerm    = "term"
)

// snapMagic heads the snapshot file, followed by the hex sha256 of the
// JSON body and a newline (same shape as the cache spill header).
const snapMagic = "nordsnap1 "

// journalRecord is one WAL line.
type journalRecord struct {
	T       string          `json:"t"`
	Job     string          `json:"job,omitempty"`
	Key     string          `json:"key,omitempty"`
	Req     json.RawMessage `json:"req,omitempty"`
	Epoch   uint64          `json:"epoch,omitempty"`
	Worker  string          `json:"worker,omitempty"`
	Attempt int             `json:"attempt,omitempty"`
	State   string          `json:"state,omitempty"`
	Err     string          `json:"err,omitempty"`
}

// RecoveredJob is one job's materialized journal state, handed to the
// coordinator on startup. State is "open" for jobs that must requeue, or
// a terminal serve.JobState string ("done", "failed", "canceled").
type RecoveredJob struct {
	ID      string          `json:"id"`
	Key     string          `json:"key"`
	Req     json.RawMessage `json:"req"`
	Attempt int             `json:"attempt,omitempty"`
	State   string          `json:"state"`
	Err     string          `json:"err,omitempty"`
	// Seq orders jobs by first submission, so recovery requeues in the
	// original arrival order.
	Seq uint64 `json:"seq"`
}

// JobStateOpen marks a journaled job that has not reached a terminal
// state: recovery must requeue it.
const JobStateOpen = "open"

// journalState is the snapshot body.
type journalState struct {
	Epoch uint64          `json:"epoch"`
	Seq   uint64          `json:"seq"`
	Jobs  []*RecoveredJob `json:"jobs"`
}

// Journal is the coordinator's crash-durability log. All methods are
// nil-receiver safe so an undurable coordinator (no journal configured)
// costs one nil check per call site.
type Journal struct {
	mu        sync.Mutex
	dir       string
	f         *os.File
	w         *bufio.Writer
	snapEvery int
	retain    int
	sinceSnap int
	broken    bool // first append/snapshot error wedges durability (never correctness)

	epoch uint64
	seq   uint64
	jobs  map[string]*RecoveredJob

	recovered []RecoveredJob // state observed at Open, before new appends

	// Counters exposed through the coordinator's /metrics series.
	appends         atomic.Uint64
	appendErrors    atomic.Uint64
	snapshots       atomic.Uint64
	replayedRecords atomic.Uint64
	tornTails       atomic.Uint64
	dupTerms        atomic.Uint64
}

// JournalOptions tunes a Journal.
type JournalOptions struct {
	// SnapEvery is the number of appended records between snapshot
	// compactions (default 256).
	SnapEvery int
	// RetainTerminal bounds how many terminal jobs the materialized state
	// keeps (oldest evicted first; default serve.RetainTerminal, the
	// live server's depth). Open jobs are never evicted.
	RetainTerminal int
}

// OpenJournal opens (or creates) the journal under dir, replays the
// snapshot + log into the materialized state, and compacts immediately so
// repeated crash/restart cycles never grow the log without bound.
func OpenJournal(dir string, opts JournalOptions) (*Journal, error) {
	if opts.SnapEvery <= 0 {
		opts.SnapEvery = 256
	}
	if opts.RetainTerminal <= 0 {
		opts.RetainTerminal = serve.RetainTerminal
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: creating journal dir: %w", err)
	}
	jl := &Journal{
		dir:       dir,
		snapEvery: opts.SnapEvery,
		retain:    opts.RetainTerminal,
		jobs:      map[string]*RecoveredJob{},
	}
	jl.loadSnapshot()
	jl.replayLog()
	jl.recovered = jl.stateLocked()
	// Compact: fold everything replayed into a fresh snapshot and start
	// with an empty log. A failure here degrades durability, not startup.
	if err := jl.compactLocked(); err != nil {
		jl.broken = true
	}
	f, err := os.OpenFile(jl.logPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleet: opening journal log: %w", err)
	}
	jl.f = f
	jl.w = bufio.NewWriter(f)
	return jl, nil
}

func (jl *Journal) logPath() string  { return filepath.Join(jl.dir, "journal.log") }
func (jl *Journal) snapPath() string { return filepath.Join(jl.dir, "snapshot") }

// loadSnapshot restores the materialized state from the snapshot file.
// A missing, truncated or corrupt snapshot is treated as empty: the
// snapshot is only ever written atomically, so this is bit rot, not a
// crash artifact. A body holding a job the journal never writes (null,
// or with no ID) is corrupt too, checksum or not.
func (jl *Journal) loadSnapshot() {
	data, err := os.ReadFile(jl.snapPath())
	if err != nil {
		return
	}
	headerLen := len(snapMagic) + sha256.Size*2 + 1
	if len(data) < headerLen || !bytes.HasPrefix(data, []byte(snapMagic)) || data[headerLen-1] != '\n' {
		return
	}
	body := data[headerLen:]
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != string(data[len(snapMagic):headerLen-1]) {
		return
	}
	var st journalState
	if err := json.Unmarshal(body, &st); err != nil {
		return
	}
	for _, j := range st.Jobs {
		if j == nil || j.ID == "" {
			return
		}
	}
	jl.epoch = st.Epoch
	jl.seq = st.Seq
	for _, j := range st.Jobs {
		jl.jobs[j.ID] = j
	}
}

// replayLog folds the log's records over the snapshot state, stopping
// silently at the first record that fails its checksum or does not parse
// — the torn tail of a crash mid-append.
func (jl *Journal) replayLog() {
	data, err := os.ReadFile(jl.logPath())
	if err != nil {
		return
	}
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			jl.tornTails.Add(1) // crash mid-line: no trailing newline
			return
		}
		line := data[:nl]
		data = data[nl+1:]
		rec, ok := parseRecord(line)
		if !ok {
			jl.tornTails.Add(1)
			return
		}
		jl.foldLocked(rec)
		jl.replayedRecords.Add(1)
	}
}

// parseRecord decodes one "%08x %s" journal line, validating the CRC.
func parseRecord(line []byte) (*journalRecord, bool) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, false
	}
	want, err := strconv.ParseUint(string(line[:8]), 16, 32)
	if err != nil {
		return nil, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE(payload) != uint32(want) {
		return nil, false
	}
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, false
	}
	return &rec, true
}

// foldLocked applies one record to the materialized state; jl.mu must be
// held (or the journal not yet shared).
func (jl *Journal) foldLocked(rec *journalRecord) {
	switch rec.T {
	case recSubmit:
		if _, ok := jl.jobs[rec.Job]; ok || rec.Job == "" {
			return // duplicate submission record, or one naming no job
		}
		jl.seq++
		jl.jobs[rec.Job] = &RecoveredJob{
			ID: rec.Job, Key: rec.Key, Req: rec.Req, State: JobStateOpen, Seq: jl.seq,
		}
	case recLease:
		if rec.Epoch > jl.epoch {
			jl.epoch = rec.Epoch
		}
		if j, ok := jl.jobs[rec.Job]; ok && j.State == JobStateOpen {
			j.Attempt = rec.Attempt
		}
	case recRequeue:
		// Informative only: the attempt count rides the lease records.
	case recTerm:
		j, ok := jl.jobs[rec.Job]
		if !ok {
			return // terminal for an evicted (or never-submitted) job
		}
		if j.State != JobStateOpen {
			jl.dupTerms.Add(1) // exactly-once: first terminal wins
			return
		}
		j.State = rec.State
		j.Err = rec.Err
		jl.evictTerminalLocked()
	}
}

// evictTerminalLocked drops the oldest terminal jobs beyond the retention
// bound; jl.mu must be held.
func (jl *Journal) evictTerminalLocked() {
	var term []*RecoveredJob
	for _, j := range jl.jobs {
		if j.State != JobStateOpen {
			term = append(term, j)
		}
	}
	if len(term) <= jl.retain {
		return
	}
	sort.Slice(term, func(i, k int) bool { return term[i].Seq < term[k].Seq })
	for _, j := range term[:len(term)-jl.retain] {
		delete(jl.jobs, j.ID)
	}
}

// stateLocked snapshots the materialized state sorted by submission
// order, ties (which only a hand-made snapshot holds) by ID; jl.mu must
// be held (or the journal not yet shared).
func (jl *Journal) stateLocked() []RecoveredJob {
	out := make([]RecoveredJob, 0, len(jl.jobs))
	for _, j := range jl.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(i, k int) bool {
		return out[i].Seq < out[k].Seq || out[i].Seq == out[k].Seq && out[i].ID < out[k].ID
	})
	return out
}

// Recovered returns the jobs materialized from the journal at Open time,
// in submission order — the coordinator's recovery worklist.
func (jl *Journal) Recovered() []RecoveredJob {
	if jl == nil {
		return nil
	}
	return jl.recovered
}

// Epoch returns the highest lease epoch ever journaled. The restarted
// coordinator resumes numbering above it so stale pre-crash leases can
// never collide with fresh grants.
func (jl *Journal) Epoch() uint64 {
	if jl == nil {
		return 0
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.epoch
}

// append folds rec into the state and writes it to the log (fsynced: the
// record must be durable before the state machine acts on it). A write
// error marks the journal broken — the coordinator keeps serving, only
// durability is lost — and is surfaced through the metrics.
func (jl *Journal) append(rec *journalRecord) {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	jl.foldLocked(rec)
	if jl.broken {
		jl.appendErrors.Add(1)
		return
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		_, err = fmt.Fprintf(jl.w, "%08x %s\n", crc32.ChecksumIEEE(payload), payload)
	}
	if err == nil {
		err = jl.w.Flush()
	}
	if err == nil {
		err = jl.f.Sync()
	}
	if err != nil {
		jl.appendErrors.Add(1)
		jl.broken = true
		return
	}
	jl.appends.Add(1)
	jl.sinceSnap++
	if jl.sinceSnap >= jl.snapEvery {
		if err := jl.compactLocked(); err != nil {
			jl.broken = true
		}
	}
}

// Submit journals a job's arrival in the fleet queue.
func (jl *Journal) Submit(jobID, key string, req []byte) {
	jl.append(&journalRecord{T: recSubmit, Job: jobID, Key: key, Req: json.RawMessage(req)})
}

// Lease journals a lease grant (epoch is the coordinator-unique lease
// number; attempt the per-job grant count).
func (jl *Journal) Lease(jobID string, epoch uint64, worker string, attempt int) {
	jl.append(&journalRecord{T: recLease, Job: jobID, Epoch: epoch, Worker: worker, Attempt: attempt})
}

// Requeue journals a lease expiry or give-back returning the job to the
// queue.
func (jl *Journal) Requeue(jobID string, attempt int) {
	jl.append(&journalRecord{T: recRequeue, Job: jobID, Attempt: attempt})
}

// Terminal journals a job's terminal transition. Duplicate terminals for
// the same job are tolerated on replay (first wins) — the late report of
// a stale lease may race a local retry's own terminal.
func (jl *Journal) Terminal(jobID, state, errMsg string) {
	jl.append(&journalRecord{T: recTerm, Job: jobID, State: state, Err: errMsg})
}

// compactLocked writes the materialized state as a fresh snapshot
// (temp + fsync + rename) and truncates the log; jl.mu must be held (or
// the journal not yet shared). Record ordering makes this safe: the
// snapshot strictly dominates every record it absorbed.
func (jl *Journal) compactLocked() error {
	st := journalState{Epoch: jl.epoch, Seq: jl.seq, Jobs: make([]*RecoveredJob, 0, len(jl.jobs))}
	for _, j := range jl.jobs {
		st.Jobs = append(st.Jobs, j)
	}
	sort.Slice(st.Jobs, func(i, k int) bool { return st.Jobs[i].Seq < st.Jobs[k].Seq })
	body, err := json.Marshal(st)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(body)
	f, err := os.CreateTemp(jl.dir, ".snap-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, err = f.Write(append(append([]byte(snapMagic+hex.EncodeToString(sum[:])), '\n'), body...))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, jl.snapPath())
	}
	if err != nil {
		_ = os.Remove(tmp)
		return err
	}
	// The snapshot is durable; drop the absorbed log records.
	if jl.f != nil {
		jl.w.Flush()
		if err := jl.f.Truncate(0); err != nil {
			return err
		}
		if _, err := jl.f.Seek(0, 0); err != nil {
			return err
		}
	} else if err := os.WriteFile(jl.logPath(), nil, 0o644); err != nil {
		return err
	}
	jl.sinceSnap = 0
	jl.snapshots.Add(1)
	return nil
}

// Close compacts one final time and releases the log file. Safe on nil.
func (jl *Journal) Close() error {
	if jl == nil {
		return nil
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	var err error
	if !jl.broken {
		err = jl.compactLocked()
	}
	if jl.f != nil {
		jl.w.Flush()
		if cerr := jl.f.Close(); err == nil {
			err = cerr
		}
		jl.f = nil
	}
	return err
}

// disable wedges the journal (test seam emulating the instant of a
// SIGKILL: the dying process must stop appending while the restarted one
// owns the files).
func (jl *Journal) disable() {
	if jl == nil {
		return
	}
	jl.mu.Lock()
	jl.broken = true
	jl.mu.Unlock()
}

// Broken reports whether a journal write has failed since open; the
// coordinator surfaces it as a degraded (but alive) health state.
func (jl *Journal) Broken() bool {
	if jl == nil {
		return false
	}
	jl.mu.Lock()
	defer jl.mu.Unlock()
	return jl.broken
}

// journalStats is the counter snapshot for /metrics.
type journalStats struct {
	appends, appendErrors, snapshots, replayed, tornTails, dupTerms uint64
}

func (jl *Journal) stats() journalStats {
	if jl == nil {
		return journalStats{}
	}
	return journalStats{
		appends:      jl.appends.Load(),
		appendErrors: jl.appendErrors.Load(),
		snapshots:    jl.snapshots.Load(),
		replayed:     jl.replayedRecords.Load(),
		tornTails:    jl.tornTails.Load(),
		dupTerms:     jl.dupTerms.Load(),
	}
}
