// Package cluster is the scale-out serving tier: an HTTP gateway
// (cmd/colorouter) that spreads prediction traffic across a replicated
// coloserve fleet while preserving the single-node tier's API surface.
//
// # Routing
//
// A predict's (and an observation's) scenario is reduced to the serve
// tier's canonical form (serve.CanonicalScenario) and consistent-hashed
// onto a ring of virtual nodes. The first R distinct backends clockwise
// form the key's replica set, owner first, so the same scenario always
// lands on the same small set of backends, and each backend's drift
// monitor sees the same streams. Backends keep no prediction memo, so
// the ring no longer buys warm caches; removing it is ROADMAP 2(e),
// after a single promotion authority. The ring is rebuilt only on
// explicit join/leave; health flaps never reshuffle key ownership.
//
// A batch (like a placement search) has no key: it is forwarded whole,
// with the caller's bytes, to the least-loaded available backend at the
// client's generation floor, failing over in load order. Backends
// evaluate a batch in one kernel call, so splitting it by ring owner
// bought only more HTTP envelopes around smaller GEMMs; forwarded whole, every check —
// the batch limit, the model name, each row — is the serving backend's
// own, and its reply is the client's byte for byte.
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
// # Tail latency
//
// A predict's attempts run on the request's own goroutine, failing over
// in order (identical predicts in flight together share nothing: a
// backend evaluates a predict in microseconds); beside them
// one timer-driven sidecar, if the call is still open after a hedge
// delay — configured, or derived from the observed backend p95 — calls
// the next unclaimed replica from the timer's goroutine. The first
// usable reply wins: a winning sidecar releases the caller by
// cancelling the context its attempt is blocked under, a returning
// caller cancels the sidecar the same way, and the loser is discarded
// without double-counting metrics. A predict whose hedge never fires
// (all but about one in a hundred) starts no goroutine.
//
// # Bytes in, bytes out
//
// The single-predict hop decodes and encodes nothing it can read off
// the bytes: the route key comes from the serve tier's own request scan
// (serve.ScanPredictRequest), model and generation from the prefix the
// serve tier renders its reply with (serve.PredictReplyIdentity), each
// with encoding/json as the fallback for any other bytes, and the reply
// — body and Content-Type — is written to the client as it came. A
// batch is read for its model name on the way in and for its rows'
// generation on the way out, and is otherwise the same: route, send,
// replay.
// Backends are resolved when they join: base URL parsed once, header
// values pre-rendered, ring points holding the backend itself.
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
