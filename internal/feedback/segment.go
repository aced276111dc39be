package feedback

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unsafe"
)

const (
	segPrefix = "obs-"
	segSuffix = ".log"
	cmpPrefix = "obs-c-"
	tmpSuffix = ".tmp"
	// cmpMagic opens the header line of a compacted segment. The "!"
	// cannot begin a plain record (those start with a hex checksum),
	// so the two formats are self-distinguishing.
	cmpMagic = "!cmp "
)

func segName(i int) string {
	return fmt.Sprintf("%s%06d%s", segPrefix, i, segSuffix)
}

func cmpName(first, last int) string {
	return fmt.Sprintf("%s%06d-%06d%s", cmpPrefix, first, last, segSuffix)
}

// parseSegName extracts the index from a plain segment file name.
func parseSegName(name string) (int, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	var idx int
	if _, err := fmt.Sscanf(mid, "%d", &idx); err != nil || strings.ContainsAny(mid, "-.") {
		return 0, false
	}
	return idx, true
}

// parseCmpName extracts the folded index range from a compacted
// segment file name.
func parseCmpName(name string) (first, last int, ok bool) {
	if !strings.HasPrefix(name, cmpPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, cmpPrefix), segSuffix)
	if _, err := fmt.Sscanf(mid, "%06d-%06d", &first, &last); err != nil {
		return 0, 0, false
	}
	return first, last, true
}

// cmpHeader is the JSON body of a compacted segment's "!cmp " header
// line. Chain is hex(SHA-256(prevChain || SHA-256(body))) where body
// is every byte after the header line and prevChain is the previous
// compacted segment's chain hash (all zeros for the first). The chain
// makes tampering with, dropping, or reordering compacted history
// detectable from the newest surviving segment.
type cmpHeader struct {
	Version int    `json:"version"`
	First   int    `json:"first"`
	Last    int    `json:"last"`
	Records int    `json:"records"`
	Prev    string `json:"prev"`
	Chain   string `json:"chain"`
}

// chainHash links one compacted segment's body onto the running chain.
func chainHash(prev [sha256.Size]byte, body []byte) [sha256.Size]byte {
	bodySum := sha256.Sum256(body)
	h := sha256.New()
	h.Write(prev[:])
	h.Write(bodySum[:])
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// parseSegment decodes a segment image in either format, appending its
// records to dst.
//
// Plain segments are newline-terminated checksummed records; with
// allowTorn, a partial or checksum-failing final record is dropped and
// keep reports the byte length of the surviving prefix (the recovery
// truncation point). Without allowTorn any damage is an error.
//
// Compacted segments (a "!cmp " header line) never tolerate damage:
// the record count must match the header and the chain hash must
// verify against the header's prev — so any bit flipped, record
// dropped, or record duplicated after compaction is detected. The
// parsed header is returned for chain-linkage checks across segments.
func (r *reader) parseSegment(dst []Observation, data []byte, allowTorn bool) (obs []Observation, keep int64, hdr *cmpHeader, err error) {
	if bytes.HasPrefix(data, []byte(cmpMagic)) {
		obs, hdr, err = r.parseCompacted(dst, data)
		return obs, int64(len(data)), hdr, err
	}
	// The scanner reads strings: it reads data itself, which nothing
	// writes until the records are decoded and which no decoded record
	// points into (see reader).
	src := unsafe.String(unsafe.SliceData(data), len(data))
	obs = dst
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No trailing newline: a torn final record.
			if !allowTorn {
				return nil, int64(off), nil, fmt.Errorf("truncated mid-record at offset %d", off)
			}
			return obs, int64(off), nil, nil
		}
		end := off + nl
		obs = append(obs, Observation{})
		if derr := r.record(&obs[len(obs)-1], data[off:end], src[off:end]); derr != nil {
			if allowTorn && end == len(data)-1 {
				// Damaged final record: torn tail, drop it.
				return obs[:len(obs)-1], int64(off), nil, nil
			}
			return nil, int64(off), nil, fmt.Errorf("record at offset %d: %w", off, derr)
		}
		off = end + 1
	}
	return obs, int64(off), nil, nil
}

func (r *reader) parseCompacted(dst []Observation, data []byte) ([]Observation, *cmpHeader, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, nil, fmt.Errorf("compacted segment: truncated header")
	}
	var h cmpHeader
	if err := json.Unmarshal(data[len(cmpMagic):nl], &h); err != nil {
		return nil, nil, fmt.Errorf("compacted segment: bad header: %w", err)
	}
	if h.Version != 1 {
		return nil, nil, fmt.Errorf("compacted segment: unsupported version %d", h.Version)
	}
	if h.First < 1 || h.Last < h.First {
		return nil, nil, fmt.Errorf("compacted segment: bad range [%d,%d]", h.First, h.Last)
	}
	body := data[nl+1:]
	var prev [sha256.Size]byte
	if err := decodeHex32(h.Prev, &prev); err != nil {
		return nil, nil, fmt.Errorf("compacted segment: bad prev hash: %w", err)
	}
	var want [sha256.Size]byte
	if err := decodeHex32(h.Chain, &want); err != nil {
		return nil, nil, fmt.Errorf("compacted segment: bad chain hash: %w", err)
	}
	if chainHash(prev, body) != want {
		return nil, nil, fmt.Errorf("compacted segment: chain hash mismatch (body tampered or truncated)")
	}
	obs, _, _, err := r.parseSegment(dst, body, false)
	if err != nil {
		return nil, nil, fmt.Errorf("compacted segment: %w", err)
	}
	if n := len(obs) - len(dst); n != h.Records {
		return nil, nil, fmt.Errorf("compacted segment: %d records, header claims %d", n, h.Records)
	}
	return obs, &h, nil
}

func decodeHex32(s string, out *[sha256.Size]byte) error {
	b, err := hex.DecodeString(s)
	if err != nil {
		return err
	}
	if len(b) != sha256.Size {
		return fmt.Errorf("hash is %d bytes, want %d", len(b), sha256.Size)
	}
	copy(out[:], b)
	return nil
}

// encodeCompacted renders a compacted segment image for the given
// concatenated record body.
func encodeCompacted(first, last, records int, prev [sha256.Size]byte, body []byte) ([]byte, [sha256.Size]byte, error) {
	chain := chainHash(prev, body)
	h := cmpHeader{
		Version: 1,
		First:   first,
		Last:    last,
		Records: records,
		Prev:    hex.EncodeToString(prev[:]),
		Chain:   hex.EncodeToString(chain[:]),
	}
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, chain, err
	}
	out := make([]byte, 0, len(cmpMagic)+len(hdr)+1+len(body))
	out = append(out, cmpMagic...)
	out = append(out, hdr...)
	out = append(out, '\n')
	out = append(out, body...)
	return out, chain, nil
}

// dirSegment is one segment file found on disk during recovery.
type dirSegment struct {
	name        string
	first, last int
	compacted   bool
}

// listDir scans the log directory, removes leftover temporary files
// from an interrupted compaction (crash before the rename commit
// point), and returns the segment files sorted by first index,
// compacted segments before plain ones at equal first index.
func listDir(dir string) ([]dirSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []dirSegment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) && strings.HasPrefix(name, segPrefix) {
			// An interrupted compaction never reached its rename; the
			// source segments are still intact, so the partial output
			// is garbage.
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return nil, fmt.Errorf("feedback: removing stale %s: %w", name, err)
			}
			continue
		}
		if first, last, ok := parseCmpName(name); ok {
			segs = append(segs, dirSegment{name: name, first: first, last: last, compacted: true})
			continue
		}
		if idx, ok := parseSegName(name); ok {
			segs = append(segs, dirSegment{name: name, first: idx, last: idx})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if segs[i].first != segs[j].first {
			return segs[i].first < segs[j].first
		}
		return segs[i].compacted && !segs[j].compacted
	})
	return segs, nil
}
