package feedback

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// FuzzSegmentDecoder drives hostile bytes through the segment decoder
// in both modes (strict, and torn-tail-tolerant recovery). The
// contract under fuzz: parseSegment never panics, never keeps more
// bytes than it was given, is deterministic, and its recovery output
// is idempotent — the prefix it keeps must reparse STRICTLY to the
// same records, since that prefix is exactly what recovery truncates
// the segment file to. Compacted segments must honour their header's
// record count. Every record of a successful parse is the parent
// codec's reading of its line, after the buffer it was scanned from has
// been overwritten and again when the same reader parses the image a
// second time, as a read's next segment: no decoded string may point
// into the buffer, and no state a reader carries from one record or
// segment to the next (intern cache, arena) may change a record. The
// committed corpus seeds the interesting shapes: a valid plain segment,
// a valid compacted segment, a truncation mid-batch, a flipped
// checksum, a duplicated record under an unchanged compacted header
// (count mismatch), and records whose names alternate.
func FuzzSegmentDecoder(f *testing.F) {
	for _, img := range corpusImages() {
		f.Add(img)
	}
	f.Add([]byte{})
	f.Add([]byte(cmpMagic + "{\"version\":1}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, allowTorn := range []bool{false, true} {
			rd := new(reader)
			buf := append([]byte(nil), data...)
			obs, keep, hdr, err := rd.parseSegment(nil, buf, allowTorn)
			for i := range buf {
				buf[i] = '#' // what the next segment's load does to the buffer
			}
			obs2, keep2, _, err2 := rd.parseSegment(nil, data, allowTorn)
			if (err == nil) != (err2 == nil) || keep != keep2 || len(obs) != len(obs2) {
				t.Fatalf("allowTorn=%v: non-deterministic parse", allowTorn)
			}
			if err != nil {
				continue
			}
			if keep < 0 || keep > int64(len(data)) {
				t.Fatalf("allowTorn=%v: keep %d outside [0,%d]", allowTorn, keep, len(data))
			}
			records := data[:keep]
			if hdr != nil {
				records = records[bytes.IndexByte(records, '\n')+1:]
			}
			agreeLineByLine(t, obs, records)
			agreeLineByLine(t, obs2, records)
			if hdr != nil {
				if len(obs) != hdr.Records {
					t.Fatalf("compacted: %d records vs header %d", len(obs), hdr.Records)
				}
				continue
			}
			if !allowTorn && keep != int64(len(data)) {
				t.Fatalf("strict parse succeeded but kept %d of %d bytes", keep, len(data))
			}
			// Recovery idempotence: what recovery would keep on disk
			// must be fully valid on the next open.
			robs, rkeep, _, rerr := new(reader).parseSegment(nil, data[:keep], false)
			if rerr != nil {
				t.Fatalf("recovered prefix does not reparse: %v", rerr)
			}
			if rkeep != keep || len(robs) != len(obs) {
				t.Fatalf("recovered prefix reparsed to %d records / %d bytes, want %d / %d",
					len(robs), rkeep, len(obs), keep)
			}
		}
	})
}

// agreeLineByLine holds each decoded record to the parent codec's
// reading of its line in records, which holds exactly those lines, each
// newline-terminated.
func agreeLineByLine(t *testing.T, obs []Observation, records []byte) {
	t.Helper()
	for i := range obs {
		nl := bytes.IndexByte(records, '\n')
		if nl < 0 {
			t.Fatalf("%d records decoded from %d lines", len(obs), i)
		}
		want, err := decodeRecordParent(records[:nl])
		if err != nil {
			t.Fatalf("record %d: decoded %#v, parent codec: %v", i, obs[i], err)
		}
		if !sameObservation(obs[i], want) {
			t.Fatalf("record %d: decoded %#v, parent codec %#v", i, obs[i], want)
		}
		records = records[nl+1:]
	}
	if len(records) != 0 {
		t.Fatalf("%d records decoded, %d bytes of lines left over", len(obs), len(records))
	}
}

// corpusImages builds the seed images with the package's own encoders,
// so the fuzzer starts from deep inside the valid formats.
func corpusImages() [][]byte {
	var plain []byte
	for i := 0; i < 3; i++ {
		plain = appendRecord(plain, &Observation{
			Model: "m", Target: "cg", PState: i,
			PredictedSeconds: 10 + float64(i), MeasuredSeconds: 11,
		})
	}

	truncated := append([]byte(nil), plain[:len(plain)/2]...)

	flipped := append([]byte(nil), plain...)
	flipped[0] ^= 0x01 // corrupt the first record's checksum

	var zero [sha256.Size]byte
	compacted, _, err := encodeCompacted(1, 2, 3, zero, plain)
	if err != nil {
		panic(err)
	}

	// Duplicate the first record but keep the header's count: the chain
	// hash covers the duplicated body (so it verifies) and the count
	// mismatch must be what rejects it.
	firstLine := plain[:bytes.IndexByte(plain, '\n')+1]
	dupBody := append(append([]byte(nil), firstLine...), plain...)
	duplicated, _, err := encodeCompacted(1, 2, 3, zero, dupBody)
	if err != nil {
		panic(err)
	}

	// Names that change from record to record, so a reader's intern
	// cache sees hits, misses and evictions within one image.
	var alternating []byte
	models := []string{"primary", "shadow"}
	apps := []string{"canneal", "cg", "ep", "mg", "streamcluster"}
	for i := 0; i < 8; i++ {
		alternating = appendRecord(alternating, &Observation{
			Model: models[i%2], Generation: uint64(1 + i%2), Target: apps[i%len(apps)],
			CoApps: []string{apps[(i+1)%len(apps)], apps[(i+3)%len(apps)]}, PState: i % 3,
			PredictedSeconds: 10 + float64(i), MeasuredSeconds: 11, UnixNanos: int64(i) * 1e9,
		})
	}

	return [][]byte{plain, truncated, flipped, compacted, duplicated, alternating}
}

// TestRegenerateFuzzCorpus rewrites the committed seed corpus from
// corpusImages. Guarded so it only runs when explicitly requested:
//
//	FEEDBACK_REGEN_CORPUS=1 go test -run TestRegenerateFuzzCorpus ./internal/feedback/
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("FEEDBACK_REGEN_CORPUS") == "" {
		t.Skip("set FEEDBACK_REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzSegmentDecoder")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzSegmentDecoder")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	names := []string{"valid-plain", "truncated-mid-batch", "checksum-flipped", "valid-compacted", "duplicated-sequence", "alternating-names"}
	for i, img := range corpusImages() {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(img)))
		if err := os.WriteFile(filepath.Join(dir, names[i]), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
