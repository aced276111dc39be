package loadgen

// The observation-ingest soak: an observe-heavy op stream against the
// in-process mux with the DISK-backed group-commit feedback log, torn
// mid-soak by a simulated crash (partial record appended to the active
// segment, log reopened under a fresh server). Run under -race in CI.
// The invariant is the durability contract end to end: every
// observation a client saw acknowledged (2xx) is present and intact
// after the reopen — zero lost, zero torn.

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"colocmodel/internal/feedback"
	"colocmodel/internal/serve"
)

func TestIngestSoak(t *testing.T) {
	dir := t.TempDir()
	// Observe-heavy: ~80 % observations, the rest predicts keeping the
	// predict path and the drift monitor honest.
	mix := Mix{PredictWeight: 1.5, BatchWeight: 0.5, ObserveWeight: 8, BatchSize: 8}

	phase := func(seed uint64, requests int) uint64 {
		t.Helper()
		log, err := feedback.Open(feedback.Config{Dir: dir, Sync: true})
		if err != nil {
			t.Fatalf("seed %d: opening log: %v", seed, err)
		}
		s := newSoakServerLog(t, serve.Config{}, log)
		space := soakSpace(t, s)
		rep, err := Run(Config{Requests: requests, Seed: seed, Mix: mix}, &HandlerDoer{Handler: s.Handler()}, space)
		if err != nil {
			t.Fatal(err)
		}
		if v := rep.Gate(); len(v) != 0 {
			t.Fatalf("seed %d: ingest soak failed: %v", seed, v)
		}
		// The preset is observe-heavy by construction.
		if 2*rep.PerOp[OpObserve] < rep.Requests {
			t.Fatalf("seed %d: observe ops %d of %d requests: mix not ingest-heavy",
				seed, rep.PerOp[OpObserve], rep.Requests)
		}
		// Every acknowledged observation is already in the log.
		if got := uint64(log.Len()); got < rep.PerOp[OpObserve] {
			t.Fatalf("seed %d: log holds %d observations, acknowledged %d", seed, got, rep.PerOp[OpObserve])
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		return rep.PerOp[OpObserve]
	}

	observed := phase(42, 1000)

	// Crash between the phases: the process dies mid-append, leaving a
	// torn record on the active segment. Recovery must drop exactly that
	// fragment and nothing else.
	segs, err := filepath.Glob(filepath.Join(dir, "obs-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files after phase 1 (err=%v)", err)
	}
	sort.Strings(segs) // zero-padded indices: last name = active segment
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"model":"torn-mid-wr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	observed += phase(1234, 1000)

	// Final audit under a fresh open: count and verify every record.
	log, err := feedback.Open(feedback.Config{Dir: dir})
	if err != nil {
		t.Fatalf("final reopen: %v", err)
	}
	defer log.Close()
	all, err := log.All()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(all)) != observed {
		t.Fatalf("log holds %d observations after reopen, want %d (zero lost)", len(all), observed)
	}
	for i, o := range all {
		if err := o.Validate(); err != nil {
			t.Fatalf("observation %d torn or corrupted: %v", i, err)
		}
	}
	st := log.Stats()
	if st.Records != 0 {
		// The fresh open performed no appends; recovery rebuilt state
		// without fabricating ingest traffic.
		t.Fatalf("reopened log claims %d ingested records", st.Records)
	}
}
