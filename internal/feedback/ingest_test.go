package feedback

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func asLog(t *testing.T, s Store) *Log {
	t.Helper()
	l, ok := s.(*Log)
	if !ok {
		t.Fatalf("store is %T, want *Log", s)
	}
	return l
}

func cmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, cmpPrefix+"*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestGroupCommitCoalescing drives 64 concurrent writers through the
// commit queue and verifies the commits coalesced: some group commit
// (and its one fsync) carried more than one record, with well-ordered
// per-stage timestamps and coherent pipeline statistics. Coalescing is
// forced, not hoped for: the test holds failMu, the first lock
// commitCohort takes, so the committer cannot finish a commit until at
// least two writers are parked in the queue; the next cohort drains
// them together.
func TestGroupCommitCoalescing(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := asLog(t, s)

	const writers = 64
	commits := make([]Commit, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	l.failMu.Lock()
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			commits[i], errs[i] = l.AppendBatch([]Observation{obs(i)})
		}(i)
	}
	// The committer takes queued batches only between commits, so two
	// parked writers ride one cohort once failMu is released. (Had the
	// committer swallowed all but one writer into the cohort it holds,
	// the queue would never reach two; that cohort coalesced instead.)
	for deadline := time.Now().Add(10 * time.Second); len(l.queue) < 2 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	l.failMu.Unlock()
	wg.Wait()

	sawCoalesced := false
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
		c := commits[i]
		if c.Batch < 1 {
			t.Fatalf("writer %d: commit batch %d", i, c.Batch)
		}
		if c.Batch > 1 {
			sawCoalesced = true
		}
		if c.WriteStart.Before(c.Queued) || c.SyncStart.Before(c.WriteStart) || c.Done.Before(c.SyncStart) {
			t.Fatalf("writer %d: commit stages out of order: %+v", i, c)
		}
	}
	if !sawCoalesced {
		t.Fatal("no commit carried more than one record: nothing coalesced")
	}
	if l.Len() != writers {
		t.Fatalf("len = %d, want %d", l.Len(), writers)
	}
	st := l.Stats()
	if st.Records != writers {
		t.Fatalf("stats records = %d, want %d", st.Records, writers)
	}
	if st.Batches >= writers {
		t.Fatalf("stats batches = %d for %d records: commits did not coalesce", st.Batches, writers)
	}
	if st.Fsyncs < st.Batches {
		t.Fatalf("fsyncs = %d < batches = %d with Sync on", st.Fsyncs, st.Batches)
	}
	if st.MaxBatch < 2 {
		t.Fatalf("max batch = %d, want coalescing", st.MaxBatch)
	}
}

// TestGroupCommitFileParityWithDirect proves the group-commit writer
// produces bit-identical segment files to the direct
// one-write-per-append path: same records, same rotation points, same
// bytes.
func TestGroupCommitFileParityWithDirect(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	direct, err := Open(Config{Dir: dirA, MaxSegmentRecords: 3, Direct: true, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := Open(Config{Dir: dirB, MaxSegmentRecords: 3, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := direct.AppendBatch([]Observation{obs(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := grouped.AppendBatch([]Observation{obs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	direct.Close()
	grouped.Close()

	for i := 1; i <= 4; i++ {
		a, err := os.ReadFile(filepath.Join(dirA, segName(i)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirB, segName(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between direct and group-commit writers", segName(i))
		}
	}
}

// TestCrashRecoveryEveryByte is the crash-recovery property test: a
// crash can truncate the final segment at ANY byte. For every possible
// truncation point, reopening must succeed and recover exactly the
// records whose newline made it to disk — never fewer, never a torn
// one.
func TestCrashRecoveryEveryByte(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MaxSegmentRecords: 4}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.AppendBatch([]Observation{obs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := l.All()
	if err != nil {
		t.Fatal(err)
	}
	l.Close()

	check := func(path string, priorRecs int, data []byte) {
		t.Helper()
		for cut := 0; cut <= len(data); cut++ {
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(cfg)
			if err != nil {
				t.Fatalf("cut %d: recovery failed: %v", cut, err)
			}
			wantN := priorRecs + bytes.Count(data[:cut], []byte("\n"))
			if l.Len() != wantN {
				t.Fatalf("cut %d: recovered %d records, want %d", cut, l.Len(), wantN)
			}
			got, err := l.All()
			if err != nil {
				t.Fatalf("cut %d: %v", cut, err)
			}
			for i, o := range got {
				if o.PredictedSeconds != want[i].PredictedSeconds {
					t.Fatalf("cut %d: record %d corrupted", cut, i)
				}
			}
			l.Close()
		}
	}

	// Segments 1 and 2 are sealed (4 records each); segment 3 holds the
	// final two. Truncate the final segment at every byte.
	seg3 := filepath.Join(dir, segName(3))
	data3, err := os.ReadFile(seg3)
	if err != nil {
		t.Fatal(err)
	}
	check(seg3, 8, data3)

	// With segment 3 gone entirely, segment 2 becomes the final segment
	// and earns the same torn-tail tolerance.
	if err := os.Remove(seg3); err != nil {
		t.Fatal(err)
	}
	seg2 := filepath.Join(dir, segName(2))
	data2, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	check(seg2, 4, data2)
}

// TestMidFileDamageDetected: torn-tail tolerance applies only to the
// FINAL segment. The same truncation mid-record in an earlier segment
// must fail recovery loudly.
func TestMidFileDamageDetected(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MaxSegmentRecords: 4}
	l, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.AppendBatch([]Observation{obs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	seg1 := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-record (not at a newline boundary): a non-final segment
	// may never be torn.
	if err := os.WriteFile(seg1, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil {
		t.Fatal("mid-file truncation not detected")
	}
}

// TestCompactionFoldAndChain folds sealed segments into compacted
// chain-checksummed segments, across a reopen, and audits the chain.
func TestCompactionFoldAndChain(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MaxSegmentRecords: 2, CompactAfter: 2}
	// Written with no compactor running: one woken by a seal mid-stream
	// could fold segments 1–3 and leave 4 alone, too few to fold.
	w, err := Open(Config{Dir: dir, MaxSegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		if _, err := w.AppendBatch([]Observation{obs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := asLog(t, s)
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	if len(cmpFiles(t, dir)) == 0 {
		t.Fatal("no compacted segment written")
	}
	st := l.Stats()
	if st.CompactedRecords != 8 {
		t.Fatalf("compacted records = %d, want 8", st.CompactedRecords)
	}
	if st.CompactionRuns == 0 {
		t.Fatal("no compaction runs recorded")
	}
	all, err := l.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 9 {
		t.Fatalf("All() = %d records after compaction, want 9", len(all))
	}
	l.Close()

	// Reopen: the chain continues where it left off; new folds link to
	// the pre-reopen compacted history.
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l2 := asLog(t, s2)
	defer l2.Close()
	if l2.Len() != 9 {
		t.Fatalf("reopened len = %d, want 9", l2.Len())
	}
	for i := 9; i < 14; i++ {
		if _, err := l2.AppendBatch([]Observation{obs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l2.VerifyChain(); err != nil {
		t.Fatalf("chain broken across reopen: %v", err)
	}
	if len(cmpFiles(t, dir)) < 2 {
		t.Fatalf("expected a second compacted segment, have %v", cmpFiles(t, dir))
	}
	all, err = l2.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 14 {
		t.Fatalf("All() = %d records, want 14", len(all))
	}
	for i, o := range all {
		if o.PredictedSeconds != obs(i).PredictedSeconds {
			t.Fatalf("record %d corrupted after compaction+reopen", i)
		}
	}
}

// TestCompactionCrashStates walks recovery through every intermediate
// state a crash can leave around the compaction rename: a stale tmp
// file (crash before rename), compacted output alongside its sources
// (crash between rename and unlink), and a truncated compacted file at
// every byte (must be DETECTED — compacted segments are written with
// write→fsync→rename and are never legitimately torn).
func TestCompactionCrashStates(t *testing.T) {
	dir := t.TempDir()
	plain := Config{Dir: dir, MaxSegmentRecords: 2}
	l, err := Open(plain)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.AppendBatch([]Observation{obs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// State: crash BEFORE the rename commit point. The partial tmp is
	// garbage; sources are intact.
	tmp := filepath.Join(dir, cmpName(1, 2)+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(plain)
	if err != nil {
		t.Fatalf("recovery with stale tmp failed: %v", err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale compaction tmp not removed")
	}
	if l2.Len() != 6 {
		t.Fatalf("len = %d after tmp cleanup, want 6", l2.Len())
	}
	l2.Close()

	// Save the source segments, run a real fold, then resurrect the
	// sources: the state a crash between rename and unlink leaves.
	src1, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	src2, err := os.ReadFile(filepath.Join(dir, segName(2)))
	if err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Config{Dir: dir, MaxSegmentRecords: 2, CompactAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := asLog(t, s3).Compact(); err != nil {
		t.Fatal(err)
	}
	s3.Close()
	cmps := cmpFiles(t, dir)
	if len(cmps) != 1 {
		t.Fatalf("expected one compacted segment, have %v", cmps)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), src1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segName(2)), src2, 0o644); err != nil {
		t.Fatal(err)
	}
	l4, err := Open(plain)
	if err != nil {
		t.Fatalf("recovery with compacted+sources failed: %v", err)
	}
	if l4.Len() != 6 {
		t.Fatalf("len = %d with superseded sources present, want 6 (no duplication)", l4.Len())
	}
	for _, n := range []string{segName(1), segName(2)} {
		if _, err := os.Stat(filepath.Join(dir, n)); !os.IsNotExist(err) {
			t.Fatalf("superseded %s not removed", n)
		}
	}
	l4.Close()

	// Truncating the compacted file anywhere must fail recovery: the
	// chain hash (or the header) no longer verifies.
	cmpData, err := os.ReadFile(cmps[0])
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(cmpData); cut++ {
		if err := os.WriteFile(cmps[0], cmpData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(plain); err == nil {
			t.Fatalf("truncated compacted segment (cut %d) not detected", cut)
		}
	}
	if err := os.WriteFile(cmps[0], cmpData, 0o644); err != nil {
		t.Fatal(err)
	}
	l5, err := Open(plain)
	if err != nil {
		t.Fatal(err)
	}
	if l5.Len() != 6 {
		t.Fatalf("len = %d after restore, want 6", l5.Len())
	}
	l5.Close()
}

// TestChainTamperDetected: modifying, or wholesale re-forging, a
// compacted segment breaks the SHA-256 chain and fails recovery.
func TestChainTamperDetected(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Dir: dir, MaxSegmentRecords: 2, CompactAfter: 2}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := asLog(t, s)
	for i := 0; i < 14; i++ {
		if _, err := l.AppendBatch([]Observation{obs(i)}); err != nil {
			t.Fatal(err)
		}
		if i == 8 || i == 13 {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	cmps := cmpFiles(t, dir)
	if len(cmps) < 2 {
		t.Fatalf("need two chained compacted segments, have %v", cmps)
	}

	// Flip one byte in the oldest compacted body.
	orig, err := os.ReadFile(cmps[0])
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), orig...)
	flipped[len(flipped)-2] ^= 0x01
	if err := os.WriteFile(cmps[0], flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil {
		t.Fatal("flipped byte in compacted segment not detected")
	}

	// Forge a self-consistent replacement with one record dropped: its
	// own hash verifies, but the NEXT segment's prev no longer links.
	nl := bytes.IndexByte(orig, '\n')
	body := orig[nl+1:]
	lines := bytes.SplitAfter(body, []byte("\n"))
	forgedBody := bytes.Join(lines[1:], nil)
	var h cmpHeader
	if _, _, hp, err := new(reader).parseSegment(nil, orig, false); err != nil {
		t.Fatal(err)
	} else {
		h = *hp
	}
	var prev [32]byte
	if err := decodeHex32(h.Prev, &prev); err != nil {
		t.Fatal(err)
	}
	forged, _, err := encodeCompacted(h.First, h.Last, h.Records-1, prev, forgedBody)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cmps[0], forged, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "chain") {
		t.Fatalf("forged compacted segment not caught by chain linkage: %v", err)
	}

	if err := os.WriteFile(cmps[0], orig, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := asLog(t, restored).VerifyChain(); err != nil {
		t.Fatal(err)
	}
	restored.Close()
}

// TestChainAuditCatchesAppendedRecord: a record line appended to a
// compacted segment of a live log, after the snapshot recorded its size,
// fails VerifyChain.
func TestChainAuditCatchesAppendedRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Config{Dir: dir, MaxSegmentRecords: 2, CompactAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l := asLog(t, s)
	for i := 0; i < 6; i++ {
		if _, err := l.AppendBatch([]Observation{obs(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := l.VerifyChain(); err != nil {
		t.Fatal(err)
	}
	cmps := cmpFiles(t, dir)
	if len(cmps) == 0 {
		t.Fatal("no compacted segment")
	}
	data, err := os.ReadFile(cmps[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	dup := append(lines[len(lines)-1], '\n') // the body's last record, again
	f, err := os.OpenFile(cmps[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(dup); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.VerifyChain(); err == nil || !strings.Contains(err.Error(), "chain hash mismatch") {
		t.Fatalf("record appended after compaction not caught: %v", err)
	}
}

// TestRetention drops whole oldest segments once the log exceeds its
// size or age budget.
func TestRetention(t *testing.T) {
	t.Run("bytes", func(t *testing.T) {
		s, err := Open(Config{Dir: t.TempDir(), MaxSegmentRecords: 2,
			Retention: Retention{MaxBytes: 1}})
		if err != nil {
			t.Fatal(err)
		}
		l := asLog(t, s)
		defer l.Close()
		for i := 0; i < 7; i++ {
			if _, err := l.AppendBatch([]Observation{obs(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		// Sealed segments 1..3 (6 records) blow the 1-byte budget and
		// drop; the active segment (record 7) always survives.
		if l.Len() != 1 {
			t.Fatalf("len = %d after retention, want 1", l.Len())
		}
		all, err := l.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 1 || all[0].PredictedSeconds != obs(6).PredictedSeconds {
			t.Fatalf("wrong survivor: %+v", all)
		}
		st := l.Stats()
		if st.RetentionDroppedRecords != 6 || st.ReclaimedBytes == 0 {
			t.Fatalf("retention stats: dropped=%d reclaimed=%d", st.RetentionDroppedRecords, st.ReclaimedBytes)
		}
	})
	t.Run("age", func(t *testing.T) {
		s, err := Open(Config{Dir: t.TempDir(), MaxSegmentRecords: 2,
			Retention: Retention{MaxAge: time.Nanosecond}})
		if err != nil {
			t.Fatal(err)
		}
		l := asLog(t, s)
		defer l.Close()
		for i := 0; i < 5; i++ {
			if _, err := l.AppendBatch([]Observation{obs(i)}); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(10 * time.Millisecond)
		if err := l.Compact(); err != nil {
			t.Fatal(err)
		}
		if l.Len() != 1 {
			t.Fatalf("len = %d after age retention, want 1", l.Len())
		}
	})
}

// TestStoreParity: the two Store implementations agree on what was
// stored.
func TestStoreParity(t *testing.T) {
	var seq []Observation
	for i := 0; i < 10; i++ {
		seq = append(seq, obs(i))
	}

	file, err := Open(Config{Dir: t.TempDir(), MaxSegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	mem, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()

	for name, s := range map[string]Store{"file": file, "mem": mem} {
		if _, err := s.AppendBatch(seq); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Len() != len(seq) {
			t.Fatalf("%s: len = %d, want %d", name, s.Len(), len(seq))
		}
		all, err := s.All()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(all, seq) {
			t.Fatalf("%s: All() diverged:\n got %+v\nwant %+v", name, all, seq)
		}
	}
}

// TestAppendAfterClose: every implementation rejects appends once
// closed.
func TestAppendAfterClose(t *testing.T) {
	for name, cfg := range map[string]Config{
		"group":  {Dir: t.TempDir()},
		"direct": {Dir: t.TempDir(), Direct: true},
		"mem":    {},
	} {
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%s: close: %v", name, err)
		}
		if _, err := s.AppendBatch([]Observation{obs(0)}); err != ErrClosed {
			t.Fatalf("%s: append after close = %v, want ErrClosed", name, err)
		}
	}
}

// TestLockFreeReadsUnderCompaction races readers against concurrent
// appends and compaction passes: All() must never error (compaction
// unlinks a file only once no reader's snapshot names it) and must
// always return a prefix of the records written, bit for bit — so a log
// never shrinks, and names interned across segments and compactions
// come back right.
func TestLockFreeReadsUnderCompaction(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir(), MaxSegmentRecords: 4, CompactAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := asLog(t, s)
	defer l.Close()

	const total = 200
	apps := []string{"canneal", "cg", "ep", "mg", "streamcluster"}
	written := make([]Observation, total)
	for i := range written {
		written[i] = obs(i)
		written[i].Target = apps[i%len(apps)]
		written[i].CoApps = apps[i%3 : i%3+1+i%2]
	}
	samePrefix := func(all []Observation) error {
		if len(all) > total {
			return fmt.Errorf("read %d records, %d written", len(all), total)
		}
		for i := range all {
			if !sameObservation(all[i], written[i]) {
				return fmt.Errorf("record %d of %d: read %#v, wrote %#v", i, len(all), all[i], written[i])
			}
		}
		return nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastLen := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				all, err := l.All()
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if len(all) < lastLen {
					t.Errorf("reader: log shrank from %d to %d", lastLen, len(all))
					return
				}
				if err := samePrefix(all); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				lastLen = len(all)
			}
		}()
	}
	for i := range written {
		if _, err := l.AppendBatch(written[i : i+1]); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	all, err := l.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != total {
		t.Fatalf("final All() = %d, want %d", len(all), total)
	}
	if err := samePrefix(all); err != nil {
		t.Fatal(err)
	}
}

// TestAppendBatchCommitDirect exercises the Commit surface of the
// direct (baseline) path: one fsync per append, batch = own records.
func TestAppendBatchCommitDirect(t *testing.T) {
	l, err := Open(Config{Dir: t.TempDir(), Direct: true, Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := l.AppendBatch([]Observation{obs(0), obs(1)})
	if err != nil {
		t.Fatal(err)
	}
	if c.Batch != 2 {
		t.Fatalf("direct commit batch = %d, want 2", c.Batch)
	}
	st := l.Stats()
	if st.Batches != 1 || st.Fsyncs != 1 {
		t.Fatalf("direct stats: batches=%d fsyncs=%d, want 1/1", st.Batches, st.Fsyncs)
	}
	if _, err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}
