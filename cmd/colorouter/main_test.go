package main

import (
	"flag"
	"io"
	"testing"
	"time"
)

// TestObservabilityFlags pins the one flag convention colorouter shares
// with coloserve: the default is the flag's default, 0 switches the
// feature off (cluster.Config spells off as negative, having 0 mean
// "default"), and out-of-range values are refused. -slo-latency 0 is
// documented "availability only"; it used to reach the config as 0 and
// come out as the 250ms default.
func TestObservabilityFlags(t *testing.T) {
	type knobs struct {
		ring       int
		slow       time.Duration
		objective  float64
		sloLatency time.Duration
		logging    bool
	}
	for _, c := range []struct {
		args []string
		want knobs
		bad  bool
	}{
		{nil, knobs{256, 100 * time.Millisecond, 0.999, 250 * time.Millisecond, true}, false},
		{[]string{"-trace-ring", "8", "-slow-ms", "2.5", "-slo-objective", "0.99", "-slo-latency", "40ms", "-log-format", "text"},
			knobs{8, 2500 * time.Microsecond, 0.99, 40 * time.Millisecond, true}, false},
		{[]string{"-trace-ring", "0", "-slow-ms", "0", "-slo-objective", "0", "-slo-latency", "0", "-log-format", "off"},
			knobs{-1, -1, -1, -1, false}, false},
		{args: []string{"-trace-ring", "-1"}, bad: true},
		{args: []string{"-slow-ms", "-1"}, bad: true},
		{args: []string{"-slo-objective", "-1"}, bad: true},
		{args: []string{"-slo-objective", "1"}, bad: true},
		{args: []string{"-slo-latency", "-1s"}, bad: true},
		{args: []string{"-log-format", "xml"}, bad: true},
	} {
		fs := flag.NewFlagSet("colorouter", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o, err := parseFlags(fs, c.args)
		if c.bad {
			if err == nil {
				t.Errorf("%v accepted", c.args)
			}
			continue
		}
		got := knobs{o.cfg.TraceRing, o.cfg.SlowThreshold, o.cfg.SLOObjective, o.cfg.SLOLatencyTarget, o.cfg.Logger != nil}
		if err != nil || got != c.want {
			t.Errorf("%v: got %+v (err %v), want %+v", c.args, got, err, c.want)
		}
	}
}

func TestParseFlagsRouting(t *testing.T) {
	fs := flag.NewFlagSet("colorouter", flag.ContinueOnError)
	o, err := parseFlags(fs, []string{"-listen", ":9", "-replicas", "3", "-drain", "2s",
		"-backend", "a=http://h:1", "-backend", "http://h:2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.listen != ":9" || o.drain != 2*time.Second || o.cfg.Replicas != 3 ||
		o.cfg.RequestTimeout != 10*time.Second || len(o.backends) != 2 {
		t.Fatalf("parsed %+v", o)
	}
}

// TestParseFlagsRefuses: a negative count or duration is an error naming
// its flag (cluster.Config would read it as the default), 0 still means
// the default, and the flags that became constants are gone.
func TestParseFlagsRefuses(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-timeout", "-1s"}, "-timeout -1s: must not be negative"},
		{[]string{"-drain", "-2s"}, "-drain -2s: must not be negative"},
		{[]string{"-probe-interval", "-1ms"}, "-probe-interval -1ms: must not be negative"},
		{[]string{"-eject-after", "-1"}, "-eject-after -1: must not be negative"},
		{[]string{"-replicas", "-3"}, "-replicas -3: must not be negative"},
		{[]string{"-vnodes", "32"}, "flag provided but not defined: -vnodes"},
		{[]string{"-fleet-scrape-timeout", "1s"}, "flag provided but not defined: -fleet-scrape-timeout"},
	} {
		fs := flag.NewFlagSet("colorouter", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parseFlags(fs, c.args); err == nil || err.Error() != c.want {
			t.Errorf("%v: error %v, want %q", c.args, err, c.want)
		}
	}
	fs := flag.NewFlagSet("colorouter", flag.ContinueOnError)
	o, err := parseFlags(fs, []string{"-timeout", "0", "-drain", "0", "-probe-interval", "0", "-eject-after", "0", "-replicas", "0"})
	if err != nil || o.cfg.RequestTimeout != 0 || o.drain != 0 || o.cfg.Replicas != 0 {
		t.Fatalf("zeros: %+v, %v", o, err)
	}
}

func TestParseBackendArg(t *testing.T) {
	for _, c := range []struct{ arg, name, base string }{
		{"a=http://localhost:8081", "a", "http://localhost:8081"},
		{"http://localhost:8081/", "localhost:8081", "http://localhost:8081/"},
		{"https://node-3:443", "node-3:443", "https://node-3:443"},
		{"node-3:8081", "node-3:8081", "node-3:8081"},
	} {
		name, base, err := parseBackendArg(c.arg)
		if err != nil || name != c.name || base != c.base {
			t.Errorf("parseBackendArg(%q) = %q %q %v, want %q %q", c.arg, name, base, err, c.name, c.base)
		}
	}
	for _, bad := range []string{"=http://h:1", "a=", "", "http://"} {
		if _, _, err := parseBackendArg(bad); err == nil {
			t.Errorf("parseBackendArg(%q) accepted", bad)
		}
	}
}
