package feedback

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// segmentRef is one sealed (immutable) segment in a snapshot.
type segmentRef struct {
	name        string
	first, last int // plain segment index range (first == last when plain)
	recs        int
	bytes       int64
	compacted   bool
	mod         time.Time
}

// snapshot is the atomically published read view of the log: the
// sealed segment list plus the committed byte offset of the active
// segment. Snapshots are immutable; readers load the pointer and never
// contend with in-flight commit I/O.
type snapshot struct {
	refs      []segmentRef
	seg       int   // active segment index
	activeOff int64 // committed bytes of the active segment
	total     int   // committed records across the whole log
}

// appendReq is one caller's batch parked on the commit queue. The
// records are encoded by the caller (outside any lock); the committer
// only splices bytes.
type appendReq struct {
	obs    []Observation
	buf    []byte // encoded records, newline-terminated, concatenated
	ends   []int  // end offset of each record within buf
	enq    time.Time
	commit Commit
	err    error
	done   chan struct{}
}

// Log is the file-backed group-commit observation store. See the
// package comment for the durability model.
type Log struct {
	cfg Config

	snap   atomic.Pointer[snapshot]
	snapMu sync.Mutex // serialises snapshot publication (committer vs compactor)
	// pinMu keeps the files a loaded snapshot names on disk: readers hold
	// it shared from snapshot load to last read, the compactor exclusively
	// only while unlinking files the published snapshot no longer names.
	// The append path never touches it.
	pinMu sync.RWMutex

	ringMu sync.Mutex
	ring   ring

	st *ingestCounters

	queue chan *appendReq
	stop  chan struct{} // closed by Close; committer drains then exits
	done  chan struct{} // closed by the committer on exit

	closeMu sync.RWMutex
	closed  bool

	failMu  sync.Mutex
	failure error // sticky first commit error; poisons later appends

	directMu sync.Mutex // Direct mode: serialises whole commits

	// Committer-owned write state (Direct mode: guarded by directMu).
	file    *os.File
	seg     int
	segRecs int
	segOff  int64
	cohort  []*appendReq

	// Compactor state. chain is the newest compacted segment's chain
	// hash (compactor-owned after Open).
	chain       [sha256.Size]byte
	compactKick chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
	compactMu   sync.Mutex // serialises compaction passes (background vs Compact)
}

func openLog(cfg Config) (*Log, error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: creating log dir: %w", err)
	}
	l := &Log{cfg: cfg, st: newIngestCounters()}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if !cfg.Direct {
		l.queue = make(chan *appendReq, cfg.Queue)
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.committer()
	}
	if cfg.CompactAfter > 0 || cfg.Retention.enabled() {
		l.compactKick = make(chan struct{}, 1)
		l.compactStop = make(chan struct{})
		l.compactDone = make(chan struct{})
		go l.compactor()
		l.kickCompactor() // fold any backlog left by a previous run
	}
	return l, nil
}

// recover scans the directory, resolves interrupted compactions,
// verifies every segment, truncates a torn tail of the final plain
// segment, rebuilds the ring, and opens the active segment for append.
func (l *Log) recover() error {
	segs, err := listDir(l.cfg.Dir)
	if err != nil {
		return fmt.Errorf("feedback: reading log dir: %w", err)
	}
	// A compacted segment supersedes the plain segments in its range:
	// if both exist, the crash hit between the rename commit point and
	// the source unlink — the compacted copy wins, sources are dropped
	// so records are not read twice.
	covered := func(idx int) bool {
		for _, s := range segs {
			if s.compacted && idx >= s.first && idx <= s.last {
				return true
			}
		}
		return false
	}
	kept := segs[:0]
	for _, s := range segs {
		if !s.compacted && covered(s.first) {
			if err := os.Remove(filepath.Join(l.cfg.Dir, s.name)); err != nil {
				return fmt.Errorf("feedback: removing superseded %s: %w", s.name, err)
			}
			continue
		}
		kept = append(kept, s)
	}
	segs = kept
	for i := 1; i < len(segs); i++ {
		if segs[i].first <= segs[i-1].last {
			return fmt.Errorf("feedback: segments %s and %s overlap", segs[i-1].name, segs[i].name)
		}
	}

	var (
		refs      []segmentRef
		all       []Observation
		prevChain [sha256.Size]byte
		seenCmp   bool
	)
	for i, s := range segs {
		path := filepath.Join(l.cfg.Dir, s.name)
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("feedback: reading %s: %w", s.name, err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			return fmt.Errorf("feedback: stat %s: %w", s.name, err)
		}
		last := i == len(segs)-1 && !s.compacted
		obs, keep, hdr, perr := parseSegment(data, last)
		if perr != nil {
			return fmt.Errorf("feedback: recovering %s: %w", s.name, perr)
		}
		if s.compacted {
			if hdr == nil {
				// The name promises a compacted segment but the content
				// has no header (e.g. truncated to nothing): corruption,
				// never silently acceptable.
				return fmt.Errorf("feedback: %s: compacted segment has no header", s.name)
			}
			// Verify chain linkage between surviving compacted
			// segments. The first present segment is the trust anchor:
			// retention may legitimately have dropped its
			// predecessors, so its prev is accepted as-is.
			if seenCmp && hdr.Prev != hexChain(prevChain) {
				return fmt.Errorf("feedback: %s: chain broken (prev %s does not match predecessor)", s.name, hdr.Prev)
			}
			if err := decodeHex32(hdr.Chain, &prevChain); err != nil {
				return fmt.Errorf("feedback: %s: %w", s.name, err)
			}
			seenCmp = true
		}
		if last && keep < int64(len(data)) {
			if err := os.Truncate(path, keep); err != nil {
				return fmt.Errorf("feedback: truncating torn tail of %s: %w", s.name, err)
			}
			data = data[:keep]
		}
		refs = append(refs, segmentRef{
			name: s.name, first: s.first, last: s.last,
			recs: len(obs), bytes: int64(len(data)),
			compacted: s.compacted, mod: fi.ModTime(),
		})
		all = append(all, obs...)
	}
	l.chain = prevChain

	// The newest plain segment is the active one; everything earlier
	// is sealed. With no plain segments the next index after the
	// compacted history starts fresh.
	seg, segRecs, segOff := 1, 0, int64(0)
	if n := len(refs); n > 0 {
		if tail := refs[n-1]; !tail.compacted {
			seg, segRecs, segOff = tail.first, tail.recs, tail.bytes
			refs = refs[:n-1]
		} else {
			seg = tail.last + 1
		}
	}
	if segRecs >= l.cfg.MaxSegmentRecords {
		refs = append(refs, segmentRef{
			name: segName(seg), first: seg, last: seg,
			recs: segRecs, bytes: segOff, mod: time.Now(),
		})
		seg++
		segRecs, segOff = 0, 0
	}
	f, err := os.OpenFile(filepath.Join(l.cfg.Dir, segName(seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: opening segment: %w", err)
	}
	l.file, l.seg, l.segRecs, l.segOff = f, seg, segRecs, segOff

	l.ring = newRing(l.cfg.RingSize)
	for _, o := range all {
		l.ring.push(o)
	}
	l.snap.Store(&snapshot{refs: refs, seg: seg, activeOff: segOff, total: len(all)})
	return nil
}

// Append stores one observation (a one-record group commit).
func (l *Log) Append(o Observation) error {
	_, err := l.AppendBatch([]Observation{o})
	return err
}

// AppendAll stores a batch; if any observation is invalid nothing is
// written.
func (l *Log) AppendAll(obs []Observation) error {
	_, err := l.AppendBatch(obs)
	return err
}

// AppendBatch validates and encodes the batch outside any lock, parks
// it on the commit queue, and returns once the committer has made it
// durable, reporting the group commit it rode in.
func (l *Log) AppendBatch(obs []Observation) (Commit, error) {
	if err := validateAll(obs); err != nil {
		return Commit{}, err
	}
	if len(obs) == 0 {
		return Commit{}, nil
	}
	req := &appendReq{obs: obs, enq: time.Now(), done: make(chan struct{})}
	for i, o := range obs {
		line, err := encodeRecord(o)
		if err != nil {
			return Commit{}, fmt.Errorf("feedback: encoding observation %d: %w", i, err)
		}
		req.buf = append(req.buf, line...)
		req.buf = append(req.buf, '\n')
		req.ends = append(req.ends, len(req.buf))
	}
	// closeMu makes enqueue-vs-Close safe: Close flips closed only
	// after every in-flight enqueue (holding the read lock, possibly
	// blocked on a full queue) has completed, then stops the
	// committer, which drains what remains — so no parked caller is
	// ever abandoned.
	l.closeMu.RLock()
	if l.closed {
		l.closeMu.RUnlock()
		return Commit{}, ErrClosed
	}
	if l.cfg.Direct {
		defer l.closeMu.RUnlock()
		l.directMu.Lock()
		defer l.directMu.Unlock()
		l.commitCohort([]*appendReq{req})
		return req.commit, req.err
	}
	l.queue <- req
	l.closeMu.RUnlock()
	<-req.done
	return req.commit, req.err
}

// committer is the single goroutine that turns queued batches into
// group commits: one coalesced write per segment run, one fsync per
// commit.
func (l *Log) committer() {
	defer close(l.done)
	for {
		var first *appendReq
		select {
		case first = <-l.queue:
		case <-l.stop:
			l.finalDrain()
			return
		}
		cohort := append(l.cohort[:0], first)
		if iv := l.cfg.CommitInterval; iv > 0 {
			t := time.NewTimer(iv)
		hold:
			for {
				select {
				case r := <-l.queue:
					cohort = append(cohort, r)
				case <-t.C:
					break hold
				case <-l.stop:
					break hold
				}
			}
			t.Stop()
		}
		cohort = l.drainQueue(cohort)
		l.commitCohort(cohort)
		for i := range cohort {
			cohort[i] = nil
		}
		l.cohort = cohort[:0]
	}
}

func (l *Log) drainQueue(cohort []*appendReq) []*appendReq {
	for {
		select {
		case r := <-l.queue:
			cohort = append(cohort, r)
		default:
			return cohort
		}
	}
}

// finalDrain commits everything still queued at Close.
func (l *Log) finalDrain() {
	if cohort := l.drainQueue(nil); len(cohort) > 0 {
		l.commitCohort(cohort)
	}
}

// commitCohort writes one group commit: the cohort's records are
// spliced into segment-sized runs (rotating at exactly
// MaxSegmentRecords, so the file layout is bit-identical to the
// one-write-per-record path), flushed with one write per run, then
// fsynced once. Only after durability does it publish the new
// snapshot, update the ring, and release every parked caller.
func (l *Log) commitCohort(cohort []*appendReq) {
	writeStart := time.Now()
	if err := l.failed(); err != nil {
		l.release(cohort, Commit{}, err)
		return
	}
	var (
		sealed []segmentRef
		wbuf   []byte
		n      int
		fsyncs int
		err    error
	)
	flush := func() error {
		if len(wbuf) == 0 {
			return nil
		}
		if _, werr := l.file.Write(wbuf); werr != nil {
			return fmt.Errorf("feedback: appending observations: %w", werr)
		}
		l.segOff += int64(len(wbuf))
		wbuf = wbuf[:0]
		return nil
	}
commit:
	for _, r := range cohort {
		start := 0
		for _, end := range r.ends {
			if l.segRecs >= l.cfg.MaxSegmentRecords {
				if err = flush(); err != nil {
					break commit
				}
				var ref segmentRef
				if ref, err = l.rotate(&fsyncs); err != nil {
					break commit
				}
				sealed = append(sealed, ref)
			}
			wbuf = append(wbuf, r.buf[start:end]...)
			start = end
			l.segRecs++
			n++
		}
	}
	if err == nil {
		err = flush()
	}
	syncStart := time.Now()
	if err == nil && l.cfg.Sync {
		if serr := l.file.Sync(); serr != nil {
			err = fmt.Errorf("feedback: syncing segment: %w", serr)
		}
		fsyncs++
	}
	end := time.Now()
	if err != nil {
		// A failed commit may leave a torn tail only reopen-recovery
		// can repair; poison the log so later appends fail fast.
		l.poison(err)
		l.release(cohort, Commit{}, err)
		return
	}

	l.snapMu.Lock()
	old := l.snap.Load()
	refs := old.refs
	if len(sealed) > 0 {
		refs = make([]segmentRef, 0, len(old.refs)+len(sealed))
		refs = append(append(refs, old.refs...), sealed...)
	}
	l.snap.Store(&snapshot{refs: refs, seg: l.seg, activeOff: l.segOff, total: old.total + n})
	l.snapMu.Unlock()

	l.ringMu.Lock()
	for _, r := range cohort {
		for _, o := range r.obs {
			l.ring.push(o)
		}
	}
	l.ringMu.Unlock()

	l.st.observeCommit(n, fsyncs, writeStart, syncStart, end)
	l.release(cohort, Commit{Batch: n, WriteStart: writeStart, SyncStart: syncStart, Done: end}, nil)
	if len(sealed) > 0 {
		l.kickCompactor()
	}
}

// rotate seals the active segment (fsyncing it first under Sync, so a
// cohort spanning a rotation leaves no unsynced sealed data) and opens
// the next one.
func (l *Log) rotate(fsyncs *int) (segmentRef, error) {
	if l.cfg.Sync {
		if err := l.file.Sync(); err != nil {
			return segmentRef{}, fmt.Errorf("feedback: syncing sealed segment: %w", err)
		}
		*fsyncs++
	}
	if err := l.file.Close(); err != nil {
		return segmentRef{}, fmt.Errorf("feedback: closing segment: %w", err)
	}
	ref := segmentRef{
		name: segName(l.seg), first: l.seg, last: l.seg,
		recs: l.segRecs, bytes: l.segOff, mod: time.Now(),
	}
	l.seg++
	l.segRecs, l.segOff = 0, 0
	f, err := os.OpenFile(filepath.Join(l.cfg.Dir, segName(l.seg)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return segmentRef{}, fmt.Errorf("feedback: opening segment: %w", err)
	}
	l.file = f
	return ref, nil
}

func (l *Log) release(cohort []*appendReq, c Commit, err error) {
	for _, r := range cohort {
		r.commit = c
		r.commit.Queued = r.enq
		r.err = err
		close(r.done)
	}
}

func (l *Log) poison(err error) {
	l.failMu.Lock()
	if l.failure == nil {
		l.failure = err
	}
	l.failMu.Unlock()
}

func (l *Log) failed() error {
	l.failMu.Lock()
	defer l.failMu.Unlock()
	return l.failure
}

func (l *Log) queueDepth() int {
	if l.queue == nil {
		return 0
	}
	return len(l.queue)
}

// Len reports committed observations; lock-free.
func (l *Log) Len() int { return l.snap.Load().total }

// Segments reports the active segment index; lock-free.
func (l *Log) Segments() int { return l.snap.Load().seg }

// Stats reports cumulative ingest statistics.
func (l *Log) Stats() IngestStats { return l.st.snapshot(l.queueDepth()) }

// Recent returns up to n of the most recent observations, oldest
// first.
func (l *Log) Recent(n int) []Observation {
	l.ringMu.Lock()
	defer l.ringMu.Unlock()
	return l.ring.recent(n)
}

// All re-reads every committed observation from disk, oldest first. It
// runs against a published snapshot, never blocking on (or observing)
// in-flight commits, and pins the snapshot's files against the
// compactor's unlinks for the duration of the read.
func (l *Log) All() ([]Observation, error) {
	l.pinMu.RLock()
	defer l.pinMu.RUnlock()
	return l.readSnapshot(l.snap.Load())
}

func (l *Log) readSnapshot(s *snapshot) ([]Observation, error) {
	out := make([]Observation, 0, s.total)
	for _, ref := range s.refs {
		data, err := os.ReadFile(filepath.Join(l.cfg.Dir, ref.name))
		if err != nil {
			return nil, err
		}
		obs, _, _, perr := parseSegment(data, false)
		if perr != nil {
			return nil, fmt.Errorf("feedback: segment %s: %w", ref.name, perr)
		}
		out = append(out, obs...)
	}
	if s.activeOff > 0 {
		f, err := os.Open(filepath.Join(l.cfg.Dir, segName(s.seg)))
		if err != nil {
			return nil, err
		}
		data := make([]byte, s.activeOff)
		_, err = io.ReadFull(f, data)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("feedback: reading active segment: %w", err)
		}
		obs, _, _, perr := parseSegment(data, false)
		if perr != nil {
			return nil, fmt.Errorf("feedback: segment %s: %w", segName(s.seg), perr)
		}
		out = append(out, obs...)
	}
	return out, nil
}

// Close stops the pipeline: no new appends are accepted, the committer
// drains and commits everything already queued, the compactor
// finishes its pass, and the active segment is closed.
func (l *Log) Close() error {
	l.closeMu.Lock()
	if l.closed {
		l.closeMu.Unlock()
		return nil
	}
	l.closed = true
	l.closeMu.Unlock()
	if !l.cfg.Direct {
		close(l.stop)
		<-l.done
	}
	if l.compactStop != nil {
		close(l.compactStop)
		<-l.compactDone
	}
	if err := l.file.Close(); err != nil && !errors.Is(err, os.ErrClosed) {
		return fmt.Errorf("feedback: closing segment: %w", err)
	}
	return nil
}
