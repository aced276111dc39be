// Package fleetobs aggregates observability across a serving fleet: it
// parses Prometheus text-exposition scrapes from individual backends
// and merges them into one fleet-wide document the router serves at
// GET /v1/fleet/metrics.
//
// Merge semantics follow metric type: counter, histogram and summary
// samples with identical label sets are summed across backends (bucket
// counts, sums and counts of a log-bucketed histogram sum exactly, so
// the merged histogram is the histogram of the union of observations);
// gauge and untyped samples are level signals that would be meaningless
// summed (a burn rate, an in-flight count), so they are re-emitted
// per backend with a `backend` label. Everything is stdlib-only.
package fleetobs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"colocmodel/internal/obs"
)

// Label is one metric label pair.
type Label = obs.Label

// Sample is one exposition line: a metric name (which for histograms
// and summaries carries a _bucket/_sum/_count suffix), its labels, and
// the value.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// key identifies a sample within a family for merging: full line name
// plus the canonical (sorted) label signature.
func (s *Sample) key() string {
	ls := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		ls[i] = l.Key + "\x00" + l.Value
	}
	sort.Strings(ls)
	return s.Name + "\x01" + strings.Join(ls, "\x02")
}

// Family groups the samples of one metric with its HELP and TYPE
// metadata. Type is "counter", "gauge", "histogram", "summary" or
// "untyped".
type Family struct {
	Name, Help, Type string
	Samples          []*Sample
}

// Doc is one parsed exposition document, families in input order.
type Doc struct {
	Families []*Family
	byName   map[string]*Family
}

func newDoc() *Doc { return &Doc{byName: make(map[string]*Family)} }

func (d *Doc) family(name string) *Family {
	if f, ok := d.byName[name]; ok {
		return f
	}
	f := &Family{Name: name, Type: "untyped"}
	d.byName[name] = f
	d.Families = append(d.Families, f)
	return f
}

// familyOf maps a sample line name to its owning family name: histogram
// and summary series append _bucket/_sum/_count to the declared name.
func (d *Doc) familyOf(line string) *Family {
	if f, ok := d.byName[line]; ok {
		return f
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base, ok := strings.CutSuffix(line, suffix)
		if !ok {
			continue
		}
		if f, ok := d.byName[base]; ok && (f.Type == "histogram" || f.Type == "summary") {
			return f
		}
	}
	return d.family(line)
}

// Parse reads one Prometheus text-exposition (0.0.4) document.
// Timestamps are not supported (our emitters never write them) and
// unparseable lines are an error: a scrape is either trusted or
// rejected whole.
func Parse(r io.Reader) (*Doc, error) {
	d := newDoc()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, obs.HelpPrefix):
			rest := line[len(obs.HelpPrefix):]
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("fleetobs: line %d: HELP without metric name", lineNo)
			}
			d.family(name).Help = help
		case strings.HasPrefix(line, obs.TypePrefix):
			rest := line[len(obs.TypePrefix):]
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || name == "" {
				return nil, fmt.Errorf("fleetobs: line %d: malformed TYPE line", lineNo)
			}
			d.family(name).Type = strings.TrimSpace(typ)
		case strings.HasPrefix(line, "#"):
			continue // comment
		default:
			s, err := parseSample(line)
			if err != nil {
				return nil, fmt.Errorf("fleetobs: line %d: %w", lineNo, err)
			}
			f := d.familyOf(s.Name)
			f.Samples = append(f.Samples, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

func parseSample(line string) (*Sample, error) {
	s := &Sample{}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return nil, fmt.Errorf("sample %q has no value", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if s.Name == "" {
		return nil, fmt.Errorf("sample %q has no name", line)
	}
	if strings.HasPrefix(rest, "{") {
		end, labels, err := parseLabels(rest)
		if err != nil {
			return nil, err
		}
		s.Labels = labels
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return nil, fmt.Errorf("sample %q: want exactly one value, no timestamp", line)
	}
	v, err := strconv.ParseFloat(rest, 64)
	if err != nil {
		return nil, fmt.Errorf("sample %q: bad value: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// parseLabels parses a `{k="v",...}` block starting at s[0]=='{' and
// returns the index just past the closing brace. Values use Go-style
// escapes (\\, \", \n), which covers what %q emits.
func parseLabels(s string) (end int, labels []Label, err error) {
	i := 1
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, labels, nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return 0, nil, fmt.Errorf("labels %q: missing '='", s)
		}
		key := s[i : i+eq]
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return 0, nil, fmt.Errorf("labels %q: unquoted value", s)
		}
		j := i + 1
		var val strings.Builder
		for {
			if j >= len(s) {
				return 0, nil, fmt.Errorf("labels %q: unterminated value", s)
			}
			c := s[j]
			if c == '\\' {
				if j+1 >= len(s) {
					return 0, nil, fmt.Errorf("labels %q: dangling escape", s)
				}
				switch s[j+1] {
				case 'n':
					val.WriteByte('\n')
				case 't':
					val.WriteByte('\t')
				default:
					val.WriteByte(s[j+1])
				}
				j += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			j++
		}
		labels = append(labels, Label{Key: key, Value: val.String()})
		i = j + 1
	}
}

// summable reports whether a family's samples add meaningfully across
// backends.
func (f *Family) summable() bool {
	switch f.Type {
	case "counter", "histogram", "summary":
		return true
	}
	return false
}

// Merge folds per-backend scrape documents into one fleet document.
// backends[i] names docs[i] (used to label non-summable samples); nil
// docs (failed scrapes) are skipped. Family order follows the first
// document that mentions each family; sample order within a family is
// first-seen across backends in input order, which is deterministic for
// a fleet of identical servers.
func Merge(backends []string, docs []*Doc) *Doc {
	out := newDoc()
	sums := make(map[string]*Sample)
	for bi, doc := range docs {
		if doc == nil {
			continue
		}
		name := ""
		if bi < len(backends) {
			name = backends[bi]
		}
		for _, f := range doc.Families {
			of := out.family(f.Name)
			if of.Help == "" {
				of.Help = f.Help
			}
			if of.Type == "untyped" && f.Type != "" {
				of.Type = f.Type
			}
			for _, s := range f.Samples {
				if f.summable() {
					k := f.Name + "\x03" + s.key()
					if agg, ok := sums[k]; ok {
						agg.Value += s.Value
						continue
					}
					cp := &Sample{Name: s.Name, Labels: append([]Label(nil), s.Labels...), Value: s.Value}
					sums[k] = cp
					of.Samples = append(of.Samples, cp)
				} else {
					cp := &Sample{
						Name:   s.Name,
						Labels: append([]Label{{Key: "backend", Value: name}}, s.Labels...),
						Value:  s.Value,
					}
					of.Samples = append(of.Samples, cp)
				}
			}
		}
	}
	return out
}

// Write renders the document in the text exposition format.
func (d *Doc) Write(out io.Writer) {
	var w obs.Writer
	for _, f := range d.Families {
		if len(f.Samples) == 0 {
			continue
		}
		w.Header(f.Name, f.Help, f.Type)
		for _, s := range f.Samples {
			w.Sample(s.Name, s.Value, s.Labels...)
		}
	}
	w.Flush(out)
}

// SumSamples adds every sample value of the named family whose line
// name matches lineName and whose labels include the given pairs (an
// empty filter matches all). Convenience for callers deriving scalars
// (e.g. total fleet requests) from a parsed doc.
func (d *Doc) SumSamples(family, lineName string, filter ...Label) (total float64, n int) {
	f, ok := d.byName[family]
	if !ok {
		return 0, 0
	}
	for _, s := range f.Samples {
		if lineName != "" && s.Name != lineName {
			continue
		}
		if !hasLabels(s.Labels, filter) {
			continue
		}
		total += s.Value
		n++
	}
	return total, n
}

func hasLabels(have, want []Label) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
