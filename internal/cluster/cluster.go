// Package cluster is the scale-out serving tier: an HTTP gateway
// (cmd/colorouter) that spreads prediction traffic across a replicated
// coloserve fleet while preserving the single-node tier's API surface.
//
// # Routing
//
// Every forwarded call — predict, batch, observations, placements — goes
// by one rule: the available backends at the client's generation floor,
// least in-flight first, ties broken by name. The predictor is a pure
// function of model and scenario and no backend keeps anything keyed by
// scenario, so any backend serves any request as well as another and
// load is the one signal worth routing on. A predict or an observation
// may try at most Config.Replicas of them (its failover breadth); a
// batch or a placement search may try them all. The membership the rule
// reads is an immutable name-sorted snapshot the pool swaps on join, so
// routing takes no lock and walks no map.
//
// Batches and observations are forwarded whole, with the caller's
// bytes: backends evaluate a batch in one kernel call and fold an
// observation batch into one group commit, so every check — the batch
// limit, the model name, each row — is the serving backend's own, and
// its reply is the client's byte for byte.
//
// # Health
//
// A probe loop GETs every backend's /healthz and /v1/version. Backends
// answering the serve tier's typed drain shed (503 "draining" with
// Retry-After) are marked shedding — alive, skipped for new work, not
// ejected. Consecutive probe failures eject a backend; re-admission is
// probed with exponential backoff and takes effect on the first healthy
// answer.
//
// # Failover
//
// Every forwarded call runs one loop on the request's own goroutine: it
// tries its candidates in order, moves on only past a reply it may
// retry (anything short of a definitive answer for reads and
// placements, a drain shed for ingest), and stops once the request's
// context is done. Nothing races candidates: a stalled replica's
// in-flight count sends every later request elsewhere, so least-loaded
// routing confines the stall to the requests it already holds.
// Identical predicts in flight together share nothing: a backend
// evaluates a predict in microseconds.
//
// # Bytes in, bytes out
//
// The single-predict hop decodes and encodes nothing it can read off
// the bytes: the model name its floor is kept under comes from the serve
// tier's own request scan (serve.ScanPredictRequest), which also gives a
// malformed body the router's 400, model and generation from the prefix
// the serve tier renders its reply with (serve.PredictReplyIdentity),
// each with encoding/json as the fallback for any other bytes, and the
// reply — body and Content-Type — is written to the client as it came.
// A batch is read for its model name on the way in and for its rows'
// generation on the way out, and an observation request is not read at
// all: route, send, replay.
// Backends are resolved when they join: base URL parsed once, header
// values pre-rendered.
//
// # Backend connections
//
// Forwarded calls go on the router's own HTTP/1.1 keep-alive
// connections, an idle list per backend: the request leaves in one
// write and its reply is parsed by http.ReadResponse on the request's
// goroutine, with no per-connection goroutines and no per-request timer.
// The request's deadline, fixed at admission, is set on the connection,
// and the caller's leaving expires it. An idle connection is reused only
// if a non-blocking peek finds it open with nothing unread, and one
// whose reply was not read to its end is closed. Health probes and
// fleet scrapes go through Config.Client.
//
// # Rolling promotion protocol
//
// POST /v1/models/reload on the router rolls a model promotion across
// the fleet one backend at a time: reload backend i, re-read its
// /v1/version to record the new generation, then move to backend i+1.
// Mid-rollout the fleet serves mixed generations; the router hides this
// from clients with per-client generation floors. Every response's
// generation raises the requesting client's floor (clients identify
// themselves with X-Client-ID; anonymous requests share one floor), and
// candidate selection skips backends below the caller's floor. A client
// that has seen generation g is therefore never routed to a backend
// still serving g-1, so each client observes a monotone generation
// sequence with no mixed-generation window, even while the fleet is
// mid-promotion.
package cluster
