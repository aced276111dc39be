package feedback

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func hexChain(c [sha256.Size]byte) string { return hex.EncodeToString(c[:]) }

func (l *Log) kickCompactor() {
	select {
	case l.compactKick <- struct{}{}:
	default:
	}
}

// compactor runs in the background, woken by the committer whenever a
// segment seals. Each pass folds eligible plain segments and enforces
// the retention bound.
func (l *Log) compactor() {
	defer close(l.compactDone)
	for {
		select {
		case <-l.compactStop:
			return
		case <-l.compactKick:
		}
		if err := l.Compact(); err != nil {
			// Compaction is best-effort hygiene: a failed pass leaves
			// the plain segments in place and the log fully readable,
			// so record the failure and retry on the next kick.
			l.poison(fmt.Errorf("feedback: compaction: %w", err))
			return
		}
	}
}

// Compact runs one synchronous compaction pass: folding sealed plain
// segments into a chain-checksummed compacted segment once CompactAfter
// of them have accumulated, then enforcing Retention. It is safe
// concurrently with appends and reads, and is exported so embedders
// (and tests) can force a deterministic pass.
func (l *Log) Compact() error {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	if l.cfg.CompactAfter > 0 {
		if err := l.foldPlain(); err != nil {
			return err
		}
	}
	if l.cfg.Retention.enabled() {
		if err := l.enforceRetention(); err != nil {
			return err
		}
	}
	return nil
}

// foldPlain folds the run of sealed plain segments (always the suffix
// of the ref list — compacted history precedes it) into one compacted
// segment. The fold is crash-atomic around the rename: tmp write →
// fsync → rename is the commit point; sources are deleted only after
// the new snapshot is published, and reopen-recovery resolves every
// intermediate state.
func (l *Log) foldPlain() error {
	snap := l.snap.Load()
	i := 0
	for j, ref := range snap.refs {
		if ref.compacted {
			i = j + 1
		}
	}
	run := snap.refs[i:]
	if len(run) < l.cfg.CompactAfter {
		return nil
	}
	var (
		body []byte
		recs int
	)
	for _, ref := range run {
		data, err := os.ReadFile(filepath.Join(l.cfg.Dir, ref.name))
		if err != nil {
			return fmt.Errorf("reading %s: %w", ref.name, err)
		}
		body = append(body, data...)
		recs += ref.recs
	}
	first, last := run[0].first, run[len(run)-1].last
	img, chain, err := encodeCompacted(first, last, recs, l.chain, body)
	if err != nil {
		return fmt.Errorf("encoding compacted segment: %w", err)
	}
	name := cmpName(first, last)
	path := filepath.Join(l.cfg.Dir, name)
	tmp := path + tmpSuffix
	if err := writeFileSync(tmp, img); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("committing %s: %w", name, err)
	}
	if err := syncDir(l.cfg.Dir); err != nil {
		return err
	}
	newRef := segmentRef{
		name: name, first: first, last: last,
		recs: recs, bytes: int64(len(img)),
		compacted: true, mod: time.Now(),
	}

	// Publish before deleting sources: new readers pick up the
	// compacted view, and unlink waits out readers of the old one.
	l.snapMu.Lock()
	fresh := l.snap.Load()
	refs := make([]segmentRef, 0, len(fresh.refs)-len(run)+1)
	refs = append(refs, fresh.refs[:i]...)
	refs = append(refs, newRef)
	refs = append(refs, fresh.refs[i+len(run):]...)
	l.snap.Store(&snapshot{refs: refs, seg: fresh.seg, activeOff: fresh.activeOff, total: fresh.total})
	l.snapMu.Unlock()
	l.chain = chain

	if err := l.unlink(run); err != nil {
		return fmt.Errorf("removing folded segment: %w", err)
	}
	l.st.compactRuns.Add(1)
	l.st.compactedRecords.Add(uint64(recs))
	return nil
}

// enforceRetention drops whole oldest sealed segments while the log
// exceeds its size or age budget.
func (l *Log) enforceRetention() error {
	now := time.Now()
	for {
		snap := l.snap.Load()
		if len(snap.refs) == 0 {
			return nil
		}
		total := snap.activeOff
		for _, r := range snap.refs {
			total += r.bytes
		}
		oldest := snap.refs[0]
		drop := false
		if mb := l.cfg.Retention.MaxBytes; mb > 0 && total > mb {
			drop = true
		}
		if ma := l.cfg.Retention.MaxAge; ma > 0 && now.Sub(oldest.mod) > ma {
			drop = true
		}
		if !drop {
			return nil
		}
		l.snapMu.Lock()
		fresh := l.snap.Load()
		l.snap.Store(&snapshot{
			refs: fresh.refs[1:], seg: fresh.seg,
			activeOff: fresh.activeOff, total: fresh.total - oldest.recs,
		})
		l.snapMu.Unlock()
		if err := l.unlink([]segmentRef{oldest}); err != nil {
			return fmt.Errorf("dropping expired segment: %w", err)
		}
		l.st.reclaimedBytes.Add(uint64(oldest.bytes))
		l.st.retentionRecords.Add(uint64(oldest.recs))
	}
}

// unlink removes segment files the published snapshot no longer names,
// once every reader that loaded an older snapshot has finished.
func (l *Log) unlink(refs []segmentRef) error {
	l.pinMu.Lock()
	defer l.pinMu.Unlock()
	for _, ref := range refs {
		if err := os.Remove(filepath.Join(l.cfg.Dir, ref.name)); err != nil {
			return err
		}
	}
	return nil
}

// VerifyChain re-reads every compacted segment in the current snapshot
// and verifies the SHA-256 chain: each segment's hash must cover its
// body and link to its predecessor's hash. The oldest surviving
// segment is the trust anchor (retention may have dropped its
// predecessors). This is the tamper-evidence audit: any record
// modified, dropped, duplicated or reordered after compaction breaks
// the chain.
func (l *Log) VerifyChain() error {
	l.pinMu.RLock()
	defer l.pinMu.RUnlock()
	snap := l.snap.Load()
	var prev [sha256.Size]byte
	seen := false
	for _, ref := range snap.refs {
		if !ref.compacted {
			continue
		}
		data, err := os.ReadFile(filepath.Join(l.cfg.Dir, ref.name))
		if err != nil {
			return fmt.Errorf("feedback: verify %s: %w", ref.name, err)
		}
		_, _, hdr, err := parseSegment(data, false)
		if err != nil {
			return fmt.Errorf("feedback: verify %s: %w", ref.name, err)
		}
		if hdr == nil {
			return fmt.Errorf("feedback: verify %s: not a compacted segment", ref.name)
		}
		if seen && hdr.Prev != hexChain(prev) {
			return fmt.Errorf("feedback: verify %s: chain broken", ref.name)
		}
		if err := decodeHex32(hdr.Chain, &prev); err != nil {
			return fmt.Errorf("feedback: verify %s: %w", ref.name, err)
		}
		seen = true
	}
	return nil
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("creating %s: %w", filepath.Base(path), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", filepath.Base(path), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("syncing %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening dir for sync: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("syncing dir: %w", err)
	}
	return nil
}
