// Package server implements mariohd, the HTTP daemon that serves the
// MARIOH reconstruction pipeline: asynchronous train jobs, synchronous and
// asynchronous reconstruction, batch fan-out, per-job SSE progress
// streams, a named model registry, and health/metrics endpoints. Graphs
// and hypergraphs cross the wire in the same line-oriented text formats
// the library and CLI use, so a server-side reconstruction is byte-
// identical to the equivalent library call.
package server

import (
	"strings"
	"time"

	"marioh"
)

// OptionSpec is the JSON form of the Reconstructor's functional options,
// carried by train and reconstruct request payloads. Zero values mean
// "paper default"; the float pointers distinguish "absent" from an
// explicit zero (θ_init, r and α all accept genuine zeros).
type OptionSpec struct {
	Variant     string   `json:"variant,omitempty"`
	Featurizer  string   `json:"featurizer,omitempty"`
	ThetaInit   *float64 `json:"theta_init,omitempty"`
	R           *float64 `json:"r,omitempty"`
	Alpha       *float64 `json:"alpha,omitempty"`
	MaxRounds   int      `json:"max_rounds,omitempty"`
	CliqueLimit int      `json:"clique_limit,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Epochs      int      `json:"epochs,omitempty"`
	Hidden      []int    `json:"hidden,omitempty"`
	Supervision float64  `json:"supervision,omitempty"`
	NegRatio    float64  `json:"negative_ratio,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
}

// Options resolves the spec into functional options for marioh.New and
// validates them by building a Reconstructor, so unknown names and
// out-of-range values fail here — before a job is queued — with the
// option's own error. Every non-zero field is forwarded to its validator.
func (s OptionSpec) Options() ([]marioh.Option, error) {
	opts := []marioh.Option{marioh.WithSeed(s.Seed)}
	if s.Variant != "" {
		opts = append(opts, marioh.WithVariant(s.Variant))
	}
	if s.Featurizer != "" {
		opts = append(opts, marioh.WithFeaturizer(s.Featurizer))
	}
	if s.ThetaInit != nil {
		opts = append(opts, marioh.WithThetaInit(*s.ThetaInit))
	}
	if s.R != nil {
		opts = append(opts, marioh.WithR(*s.R))
	}
	if s.Alpha != nil {
		opts = append(opts, marioh.WithAlpha(*s.Alpha))
	}
	if s.MaxRounds != 0 {
		opts = append(opts, marioh.WithMaxRounds(s.MaxRounds))
	}
	if s.CliqueLimit != 0 {
		opts = append(opts, marioh.WithMaxCliqueLimit(s.CliqueLimit))
	}
	if s.Epochs != 0 {
		opts = append(opts, marioh.WithEpochs(s.Epochs))
	}
	if len(s.Hidden) > 0 {
		opts = append(opts, marioh.WithHidden(s.Hidden...))
	}
	if s.Supervision != 0 {
		opts = append(opts, marioh.WithSupervisionRatio(s.Supervision))
	}
	if s.NegRatio != 0 {
		opts = append(opts, marioh.WithNegativeRatio(s.NegRatio))
	}
	if s.Parallelism != 0 {
		opts = append(opts, marioh.WithParallelism(s.Parallelism))
	}
	if _, err := marioh.New(opts...); err != nil {
		return nil, err
	}
	return opts, nil
}

// TrainRequest is the body of POST /v1/train. Source is a hypergraph in
// the text format of marioh.ReadHypergraph; the trained model is saved in
// the registry under SaveAs (default: the job ID).
type TrainRequest struct {
	Source  string     `json:"source"`
	SaveAs  string     `json:"save_as,omitempty"`
	Options OptionSpec `json:"options,omitempty"`
}

// TrainResult is a train job's result payload.
type TrainResult struct {
	Model         string  `json:"model"`
	Featurizer    string  `json:"featurizer"`
	Positives     int     `json:"positives"`
	Negatives     int     `json:"negatives"`
	SampleSeconds float64 `json:"sample_seconds"`
	TrainSeconds  float64 `json:"train_seconds"`
}

// ReconstructRequest is the body of POST /v1/reconstruct (one Target) and
// POST /v1/reconstruct/batch (Targets). Model names a registry entry;
// targets are projected graphs in the text format of marioh.ReadGraph.
// Async forces the execution mode; when nil, single reconstructions run
// synchronously up to the server's sync edge limit.
type ReconstructRequest struct {
	Model   string     `json:"model"`
	Target  string     `json:"target,omitempty"`
	Targets []string   `json:"targets,omitempty"`
	Options OptionSpec `json:"options,omitempty"`
	Async   *bool      `json:"async,omitempty"`
}

// ReconstructResult is the result payload of one reconstruction: the
// hypergraph in marioh text format plus the run's metadata.
type ReconstructResult struct {
	Hypergraph    string  `json:"hypergraph"`
	Unique        int     `json:"unique"`
	Total         int     `json:"total"`
	Rounds        int     `json:"rounds"`
	FilteredSize2 int     `json:"filtered_size2"`
	FilterSeconds float64 `json:"filter_seconds"`
	SearchSeconds float64 `json:"search_seconds"`
	// Dirty is the number of components an incremental session apply
	// recomputed; 0 for non-incremental runs.
	Dirty int `json:"dirty,omitempty"`
}

// BatchResult is a batch job's result payload, positionally aligned with
// the request's Targets.
type BatchResult struct {
	Results []ReconstructResult `json:"results"`
}

// ReconstructResponse is the 200 body of a synchronous reconstruction;
// asynchronous submissions return a JobInfo with status 202 instead.
type ReconstructResponse struct {
	JobID  string            `json:"job_id"`
	Result ReconstructResult `json:"result"`
}

// ProgressEvent is the SSE wire form of a marioh.Progress snapshot.
type ProgressEvent struct {
	Target         int     `json:"target"`
	Round          int     `json:"round"`
	Dirty          int     `json:"dirty,omitempty"`
	Theta          float64 `json:"theta"`
	EdgesRemaining int     `json:"edges_remaining"`
	AcceptedRound  int     `json:"accepted_round"`
	AcceptedTotal  int     `json:"accepted_total"`
}

func progressEvent(p marioh.Progress) ProgressEvent {
	return ProgressEvent{
		Target:         p.Target,
		Round:          p.Round,
		Dirty:          p.Dirty,
		Theta:          p.Theta,
		EdgesRemaining: p.EdgesRemaining,
		AcceptedRound:  p.AcceptedRound,
		AcceptedTotal:  p.AcceptedTotal,
	}
}

// Health is the body of GET /healthz.
type Health struct {
	Status        string  `json:"status"`
	Version       string  `json:"version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Workers       int     `json:"workers"`
	QueueDepth    int     `json:"queue_depth"`
	Models        int     `json:"models"`
	Sessions      int     `json:"sessions"`
	// Parked counts durable sessions currently flushed to disk (not in
	// Sessions, which counts loaded engines).
	Parked int `json:"parked,omitempty"`
}

// SessionRequest is the body of POST /v1/sessions: open an incremental
// reconstruction session over a base projected graph, using a registry
// model and the usual option spec.
type SessionRequest struct {
	Model   string     `json:"model"`
	Graph   string     `json:"graph"`
	Options OptionSpec `json:"options,omitempty"`
}

// SessionInfo is the JSON snapshot of a server session.
type SessionInfo struct {
	ID    string `json:"id"`
	Model string `json:"model"`
	// Tenant is the identity the session was created under (quota
	// accounting; "default" when the creator sent no tenant header).
	Tenant string `json:"tenant,omitempty"`
	// Nodes/Edges describe the session's current graph; Components is the
	// number of live components with a cached reconstruction.
	Nodes      int `json:"nodes"`
	Edges      int `json:"edges"`
	Components int `json:"components"`
	// Applies counts delta batches served; LastDirty is the component
	// count the latest batch recomputed.
	Applies   int       `json:"applies"`
	LastDirty int       `json:"last_dirty"`
	LastJob   string    `json:"last_job,omitempty"`
	Created   time.Time `json:"created"`
	LastUsed  time.Time `json:"last_used"`
	// Durable reports whether the session persists under the daemon's
	// data dir; Parked means its engine is currently flushed to disk (it
	// rehydrates transparently on the next apply).
	Durable bool `json:"durable,omitempty"`
	Parked  bool `json:"parked,omitempty"`
	// Recovery classifies the session's last crash recovery ("clean",
	// "torn-tail", "cache-dropped", "snapshot-fallback", "lost-suffix");
	// Replayed is how many WAL records that recovery replayed.
	Recovery string `json:"recovery,omitempty"`
	Replayed int    `json:"replayed,omitempty"`
}

// SessionApplyRequest is the body of POST /v1/sessions/{id}/apply. Deltas
// is an edge-delta stream in the marioh.ReadDeltas text format ("+ u v w",
// "- u v", "= u v w" lines); an empty stream reconstructs whatever is not
// cached yet (on a fresh session, the whole graph). Async forces the
// execution mode; when nil, applies run synchronously on the request
// goroutine up to the server's sync edge limit and are queued above it.
// A session accepts one apply at a time (overlap answers 409 Conflict).
//
// Delta batches are NOT idempotent ("+ u v w" accumulates). The deltas
// are applied to the session graph before reconstruction starts, so when
// a sync apply fails ambiguously (timeout, disconnect, 503 during
// drain), the client must not blindly re-send the batch: check the
// session's `applies` counter via GET /v1/sessions/{id} to see whether
// the batch landed, prefer async applies (the job outcome is inspectable
// after the fact), or recreate the session from a known graph.
type SessionApplyRequest struct {
	Deltas string `json:"deltas"`
	Async  *bool  `json:"async,omitempty"`
	// Seq, when set, asserts the session's applies counter before this
	// batch; a mismatch answers 409 Conflict without mutating anything.
	// This is the safe way to retry after an ambiguous failure: assert
	// the count you last observed, and a 409 tells you the batch already
	// landed (re-read the session instead of re-sending).
	Seq *int `json:"seq,omitempty"`
}

// SessionApplyResponse is the 200 body of a synchronous apply;
// asynchronous submissions return a JobInfo with status 202 instead. The
// embedded result's Dirty field reports how many components the apply
// recomputed.
type SessionApplyResponse struct {
	JobID   string            `json:"job_id"`
	Session SessionInfo       `json:"session"`
	Result  ReconstructResult `json:"result"`
}

// parseHypergraph decodes the wire text format of a hypergraph.
func parseHypergraph(text string) (*marioh.Hypergraph, error) {
	return marioh.ReadHypergraph(strings.NewReader(text))
}

// parseGraph decodes the wire text format of a projected graph.
func parseGraph(text string) (*marioh.Graph, error) {
	return marioh.ReadGraph(strings.NewReader(text))
}
