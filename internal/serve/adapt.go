package serve

// The adaptation surface: the serving tier's half of the online
// adaptation loop. Deployed schedulers report measured execution times
// back through POST /v1/observations; each report is durably appended
// to the feedback log and folded into the drift monitor, and when a
// residual stream trips the Page–Hinkley detector the retraining
// controller is (optionally) triggered in the background. GET
// /v1/drift exposes the monitor, POST /v1/retrain and GET
// /v1/retrain/status drive and observe the controller.

import (
	"errors"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/drift"
	"colocmodel/internal/feedback"
	"colocmodel/internal/obs"
	"colocmodel/internal/retrain"
)

// Adaptation bundles the three adaptation-loop components the server
// wires together.
type Adaptation struct {
	// Log is the durable observation store (file-backed group-commit
	// log, memory-only store, or any other feedback.Store).
	Log feedback.Store
	// Monitor is the residual drift monitor.
	Monitor *drift.Monitor
	// Controller is the gated retraining controller. Optional: without
	// it observations are logged and monitored but never acted on.
	Controller *retrain.Controller
	// AutoRetrain triggers the controller when a drift detector trips.
	// It requires Controller (and the controller's Start loop running).
	AutoRetrain bool
}

// EnableAdaptation attaches the adaptation loop to the server. It must
// be called before Handler(). Promotions reset the promoted model's
// drift streams and count as hot-swaps in the metrics.
func (s *Server) EnableAdaptation(a Adaptation) error {
	if a.Log == nil || a.Monitor == nil {
		return &Error{Status: http.StatusInternalServerError, Code: CodeInternal,
			Message: "adaptation needs a feedback log and a drift monitor"}
	}
	if a.AutoRetrain && a.Controller == nil {
		return &Error{Status: http.StatusInternalServerError, Code: CodeInternal,
			Message: "auto-retrain needs a controller"}
	}
	if a.Controller != nil {
		a.Controller.OnPromote(func(model string) {
			a.Monitor.Reset(model)
			s.metrics.SwapsRecorded(1)
		})
		// Retrain attempts trace their stage lifecycle (dataset assembly,
		// train, holdout eval, promote) into the same ring the request
		// traces land in.
		a.Controller.SetTracer(s.edge.Tracer())
	}
	s.adapt = &a
	return nil
}

// Adaptation returns the attached adaptation loop (nil when disabled).
func (s *Server) Adaptation() *Adaptation { return s.adapt }

// adaptationDisabled is the response for adaptation endpoints on a
// server running without the loop.
func adaptationDisabled() (int, any) {
	return errBody(&Error{Status: http.StatusServiceUnavailable, Code: CodeAdaptationDisabled,
		Message: "this server is running without the adaptation loop"})
}

// ---- observations ----

// ObservationRequest is the wire form of one deployment observation:
// a scenario the scheduler actually ran, with its measured runtime.
type ObservationRequest struct {
	// Model names the registry entry the prediction came from; empty
	// selects the default model.
	Model string `json:"model,omitempty"`
	// Target, CoApps and PState identify the scenario.
	Target string   `json:"target"`
	CoApps []string `json:"co_apps,omitempty"`
	PState int      `json:"pstate,omitempty"`
	// PredictedSeconds is the runtime the model predicted. Zero asks
	// the server to compute it, with the model snapshot whose generation
	// the observation is logged under, so callers that only measure can
	// still feed the loop.
	PredictedSeconds float64 `json:"predicted_seconds,omitempty"`
	// MeasuredSeconds is the observed runtime (must be positive).
	MeasuredSeconds float64 `json:"measured_seconds"`
}

// ObservationsRequest accepts a single observation (the embedded
// fields) or a batch (the observations array). When the array is
// non-empty the embedded single fields must be unset.
type ObservationsRequest struct {
	ObservationRequest
	Observations []ObservationRequest `json:"observations,omitempty"`
}

// ObservationItem is one slot of an observations response.
type ObservationItem struct {
	// PercentError is the signed percent error folded into the drift
	// monitor (set on accepted slots).
	PercentError float64      `json:"percent_error"`
	Error        *errorDetail `json:"error,omitempty"`
}

// ObservationsResponse reports an ingest.
type ObservationsResponse struct {
	Accepted int               `json:"accepted"`
	Rejected int               `json:"rejected"`
	Results  []ObservationItem `json:"results"`
	// DriftTripped reports whether any detector tripped during this
	// ingest; RetrainTriggered whether that queued a retraining attempt.
	DriftTripped     bool `json:"drift_tripped"`
	RetrainTriggered bool `json:"retrain_triggered,omitempty"`
}

func (s *Server) handleObservations(_ http.ResponseWriter, r *http.Request, tr *obs.Trace) (int, any) {
	if s.adapt == nil {
		return adaptationDisabled()
	}
	sp := tr.StartSpan("decode")
	var req ObservationsRequest
	e := decodeRequest(r, &req)
	sp.End()
	if e != nil {
		return errBody(e)
	}
	batch := req.Observations
	single := len(batch) == 0
	if single {
		batch = []ObservationRequest{req.ObservationRequest}
	} else if req.Target != "" || req.MeasuredSeconds != 0 {
		return errBody(badRequest(CodeBadRequest, "set either the single observation fields or \"observations\", not both"))
	}
	if len(batch) > maxBatch {
		return errBody(badRequest(CodeBadRequest, "batch of %d exceeds limit %d", len(batch), maxBatch))
	}

	// Validate and resolve every slot first, then funnel all the valid
	// observations into ONE durable append: a batch request costs one
	// group commit (and, under load, even that commit is shared with
	// concurrent requests coalescing in the log's commit queue).
	resp := ObservationsResponse{Results: make([]ObservationItem, len(batch))}
	pending := make([]int, 0, len(batch))
	obsBatch := make([]feedback.Observation, 0, len(batch))
	names := make([]string, 0, len(batch))
	total := 0
	for _, or := range batch {
		total += len(or.CoApps)
	}
	co := make([]int32, total) // every slot's co-app ids, carved in order
	for i, or := range batch {
		k := len(or.CoApps)
		ob, name, e := s.buildObservation(tr, or, co[:k:k])
		co = co[k:]
		if e != nil {
			resp.Results[i].Error = &errorDetail{Code: e.Code, Message: e.Message}
			resp.Rejected++
			s.metrics.obsRejected.Inc()
			continue
		}
		pending = append(pending, i)
		obsBatch = append(obsBatch, ob)
		names = append(names, name)
	}
	if len(obsBatch) > 0 {
		isp := tr.StartSpan("ingest")
		isp.Annotate("records", strconv.Itoa(len(obsBatch)))
		commit, err := s.adapt.Log.AppendBatch(obsBatch)
		if err != nil {
			isp.Fail(err.Error())
		} else {
			isp.Annotate("group_records", strconv.Itoa(commit.Batch))
			recordCommitSpans(isp, commit)
		}
		isp.End()
		if err != nil {
			e := asError(err)
			for _, i := range pending {
				resp.Results[i].Error = &errorDetail{Code: e.Code, Message: e.Message}
				resp.Rejected++
				s.metrics.obsRejected.Inc()
			}
			pending = pending[:0]
		}
	}
	if len(pending) > 0 {
		dsp := tr.StartSpan("drift_check")
		for k, i := range pending {
			ob := obsBatch[k]
			pct := ob.PercentError()
			resp.Results[i].PercentError = pct
			resp.Accepted++
			s.metrics.obsIngested.Inc()
			if s.adapt.Monitor.Observe(names[k], ob.Target, pct) {
				resp.DriftTripped = true
				s.metrics.driftTrips.Inc()
				if s.adapt.AutoRetrain && s.adapt.Controller.Trigger("drift") {
					resp.RetrainTriggered = true
				}
			}
		}
		dsp.End()
	}
	if single && resp.Rejected == 1 {
		// A lone bad observation is a plain client error, not a
		// partial-success envelope.
		d := resp.Results[0].Error
		return errBody(&Error{Status: http.StatusBadRequest, Code: d.Code, Message: d.Message})
	}
	return http.StatusOK, &resp
}

// recordCommitSpans attributes the group-commit pipeline stages
// (enqueue wait → coalesced write → fsync) into the ingest span after
// the fact, from the Commit's stage timestamps.
func recordCommitSpans(sp obs.Span, c feedback.Commit) {
	sp.Record("enqueue", c.Queued, c.WriteStart)
	sp.Record("commit", c.WriteStart, c.SyncStart)
	if c.Done.After(c.SyncStart) {
		sp.Record("fsync", c.SyncStart, c.Done)
	}
}

// buildObservation validates one observation request, its co-apps' ids
// going into co, and turns it into a log record, filling in the model's
// prediction from the ids it validated when the caller omitted it. It
// does not touch the log or the drift monitor.
func (s *Server) buildObservation(tr *obs.Trace, or ObservationRequest, co []int32) (feedback.Observation, string, *Error) {
	rm, e := s.resolveModel(or.Model)
	if e != nil {
		return feedback.Observation{}, "", e
	}
	sc := ScenarioRequest{Target: or.Target, CoApps: or.CoApps, PState: or.PState}.scenario()
	row, e := validateScenario(rm.servedModel, sc, co)
	if e != nil {
		return feedback.Observation{}, "", e
	}
	if or.MeasuredSeconds <= 0 {
		return feedback.Observation{}, "", badRequest(CodeBadRequest, "measured_seconds %v must be positive", or.MeasuredSeconds)
	}
	if or.PredictedSeconds < 0 {
		return feedback.Observation{}, "", badRequest(CodeBadRequest,
			"predicted_seconds %v must be positive, or 0 for the model's own prediction", or.PredictedSeconds)
	}
	pred := or.PredictedSeconds
	if pred == 0 {
		if pred, e = evalOne(tr.Root(), rm.m, row); e != nil {
			return feedback.Observation{}, "", e
		}
	}
	return feedback.Observation{
		Model: rm.name, Generation: rm.gen,
		Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState,
		PredictedSeconds: pred, MeasuredSeconds: or.MeasuredSeconds,
		UnixNanos: time.Now().UnixNano(),
	}, rm.name, nil
}

// ---- drift ----

func (s *Server) handleDrift(_ http.ResponseWriter, r *http.Request, _ *obs.Trace) (int, any) {
	if s.adapt == nil {
		return adaptationDisabled()
	}
	return http.StatusOK, s.adapt.Monitor.Report()
}

// ---- retrain ----

// RetrainRequest drives a manual retraining attempt. The body is
// optional; an empty body is an asynchronous trigger. While an attempt
// is running, either form is refused with a 409 retrain_in_progress.
type RetrainRequest struct {
	// Wait makes the attempt synchronous: the response carries the
	// completed result instead of 202.
	Wait bool `json:"wait,omitempty"`
	// Reason is recorded in the attempt history; default "manual".
	Reason string `json:"reason,omitempty"`
}

// RetrainTriggerResponse is the asynchronous (202) response.
type RetrainTriggerResponse struct {
	// Triggered reports whether the attempt was queued; false means the
	// queue already holds pending attempts, which will see the same
	// observations.
	Triggered bool           `json:"triggered"`
	Status    retrain.Status `json:"status"`
}

func (s *Server) handleRetrain(_ http.ResponseWriter, r *http.Request, _ *obs.Trace) (int, any) {
	if s.adapt == nil || s.adapt.Controller == nil {
		return adaptationDisabled()
	}
	var req RetrainRequest
	if r.ContentLength != 0 {
		if e := decodeRequest(r, &req); e != nil {
			return errBody(e)
		}
	}
	if req.Reason == "" {
		req.Reason = "manual"
	}
	inProgress := &Error{Status: http.StatusConflict, Code: CodeRetrainInProgress, Message: retrain.ErrInProgress.Error()}
	if req.Wait {
		res, err := s.adapt.Controller.RunOnce(req.Reason)
		if errors.Is(err, retrain.ErrInProgress) {
			return errBody(inProgress)
		}
		if err != nil {
			return errBody(asError(err))
		}
		return http.StatusOK, res
	}
	if s.adapt.Controller.Status().State == "training" {
		return errBody(inProgress)
	}
	triggered := s.adapt.Controller.Trigger(req.Reason)
	return http.StatusAccepted, RetrainTriggerResponse{
		Triggered: triggered,
		Status:    s.adapt.Controller.Status(),
	}
}

func (s *Server) handleRetrainStatus(_ http.ResponseWriter, r *http.Request, _ *obs.Trace) (int, any) {
	if s.adapt == nil || s.adapt.Controller == nil {
		return adaptationDisabled()
	}
	return http.StatusOK, s.adapt.Controller.Status()
}

// ---- version ----

// VersionResponse is the build-info body of GET /v1/version. It doubles
// as the cluster router's generation probe: DefaultModel and Generations
// report the registry's serving generations so a routing tier can track
// each backend's promotion state without a second endpoint.
type VersionResponse struct {
	Service    string `json:"service"`
	APIVersion string `json:"api_version"`
	// ModelFormat is the artefact format version this build reads.
	ModelFormat int    `json:"model_format"`
	GoVersion   string `json:"go_version"`
	Module      string `json:"module,omitempty"`
	Revision    string `json:"vcs_revision,omitempty"`
	// Adaptation reports whether the adaptation loop is enabled.
	Adaptation bool `json:"adaptation"`
	// DefaultModel is the registry's default entry ("" when empty).
	DefaultModel string `json:"default_model,omitempty"`
	// Generations maps every registered model to its serving generation.
	Generations map[string]uint64 `json:"generations,omitempty"`
	// Draining reports whether the server is shedding for shutdown.
	Draining bool `json:"draining,omitempty"`
}

func (s *Server) handleVersion(_ http.ResponseWriter, r *http.Request, _ *obs.Trace) (int, any) {
	resp := VersionResponse{
		Service:      "coloserve",
		APIVersion:   "v1",
		ModelFormat:  core.ModelFormat(),
		Adaptation:   s.adapt != nil,
		DefaultModel: s.reg.DefaultName(),
		Draining:     s.draining.Load(),
	}
	if infos := s.reg.List(); len(infos) > 0 {
		resp.Generations = make(map[string]uint64, len(infos))
		for _, info := range infos {
			resp.Generations[info.Name] = info.Generation
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.GoVersion = bi.GoVersion
		resp.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				resp.Revision = kv.Value
			}
		}
	}
	return http.StatusOK, resp
}

// collectAdaptation declares the adaptation families of a metrics
// scrape: values read live from the monitor, the log and the
// controller rather than mirrored into handles. Nothing is written
// while the loop is disabled.
func (s *Server) collectAdaptation(w *obs.Writer) {
	if s.adapt == nil {
		return
	}
	tripped := 0.0
	if s.adapt.Monitor.Tripped() {
		tripped = 1
	}
	w.Gauge("coloserve_drift_score", "Largest Page–Hinkley score across residual streams.", s.adapt.Monitor.MaxScore())
	w.Gauge("coloserve_drift_tripped", "1 when any drift detector has fired.", tripped)
	w.Gauge("coloserve_observations_logged", "Observations in the feedback log.", float64(s.adapt.Log.Len()))
	if s.adapt.Controller == nil {
		return
	}
	st := s.adapt.Controller.Status()
	w.Counter("coloserve_retrains_attempted_total", "Retraining attempts completed.", float64(st.Attempts))
	w.Counter("coloserve_retrains_promoted_total", "Retraining attempts that promoted a candidate.", float64(st.Promoted))
	w.Counter("coloserve_retrains_rejected_total", "Retraining attempts that kept the incumbent.", float64(st.Rejected))
	if st.Last != nil {
		w.Gauge("coloserve_retrain_candidate_mpe", "Holdout MPE of the last retraining candidate.", st.Last.CandidateMPE)
		w.Gauge("coloserve_retrain_incumbent_mpe", "Holdout MPE of the incumbent at the last attempt.", st.Last.IncumbentMPE)
	}
}
