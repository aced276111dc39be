package fleetobs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Target is one backend to scrape.
type Target struct {
	// Name labels the backend in merged output.
	Name string
	// MetricsURL is the backend's /metrics endpoint.
	MetricsURL string
}

// BackendScrape is the per-backend outcome of one fleet scrape.
type BackendScrape struct {
	Name string
	// Err is set when the scrape failed; Doc is nil then.
	Err error
	Doc *Doc
	// Requests and Errors sum the backend's request/error counters
	// across endpoints at scrape time.
	Requests, Errors float64
	// DeltaRequests/DeltaErrors are the increments since this
	// aggregator's previous successful scrape of the same backend
	// (zero on the first scrape or after a counter reset).
	DeltaRequests, DeltaErrors float64
	// ErrorRate is DeltaErrors/DeltaRequests — the error rate of the
	// traffic between the two scrapes, not the lifetime average.
	ErrorRate float64
}

// FleetScrape is one aggregated scrape of the whole fleet.
type FleetScrape struct {
	Merged   *Doc
	Backends []BackendScrape
}

// Aggregator scrapes a fleet of backends concurrently and merges the
// results, keeping per-backend counter state across scrapes so error
// rates can be reported as deltas.
type Aggregator struct {
	// Client issues the scrapes; http.DefaultClient when nil.
	Client *http.Client

	mu   sync.Mutex
	prev map[string][2]float64 // backend -> {requests, errors} at last scrape
}

// The per-backend counter families the delta error rate is derived
// from, and the bound on one fleet scrape.
const (
	requestCounter = "coloserve_requests_total"
	errorCounter   = "coloserve_request_errors_total"
	scrapeTimeout  = 2 * time.Second
)

// Scrape fetches and parses every target's metrics concurrently, then
// merges the successful scrapes. Failed backends appear in Backends
// with Err set and contribute nothing to the merged document.
func (a *Aggregator) Scrape(ctx context.Context, targets []Target) *FleetScrape {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()

	out := &FleetScrape{Backends: make([]BackendScrape, len(targets))}
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, tgt Target) {
			defer wg.Done()
			bs := &out.Backends[i]
			bs.Name = tgt.Name
			bs.Doc, bs.Err = a.scrapeOne(ctx, tgt.MetricsURL)
		}(i, tgt)
	}
	wg.Wait()

	names := make([]string, len(targets))
	docs := make([]*Doc, len(targets))
	a.mu.Lock()
	if a.prev == nil {
		a.prev = make(map[string][2]float64)
	}
	for i := range out.Backends {
		bs := &out.Backends[i]
		names[i] = bs.Name
		docs[i] = bs.Doc
		if bs.Doc == nil {
			continue
		}
		bs.Requests, _ = bs.Doc.SumSamples(requestCounter, requestCounter)
		bs.Errors, _ = bs.Doc.SumSamples(errorCounter, errorCounter)
		if prev, ok := a.prev[bs.Name]; ok && bs.Requests >= prev[0] && bs.Errors >= prev[1] {
			bs.DeltaRequests = bs.Requests - prev[0]
			bs.DeltaErrors = bs.Errors - prev[1]
			if bs.DeltaRequests > 0 {
				bs.ErrorRate = bs.DeltaErrors / bs.DeltaRequests
			}
		}
		a.prev[bs.Name] = [2]float64{bs.Requests, bs.Errors}
	}
	a.mu.Unlock()
	out.Merged = Merge(names, docs)
	return out
}

func (a *Aggregator) scrapeOne(ctx context.Context, url string) (*Doc, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	client := a.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleetobs: scrape %s: status %d", url, resp.StatusCode)
	}
	return Parse(io.LimitReader(resp.Body, 8<<20))
}
