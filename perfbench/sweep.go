package main

import (
	"context"
	"crypto/sha256"

	"marioh"
	"marioh/internal/server"
)

// sweepLibrary runs the round and sharded replays and the session sweep
// once on g — the layers serve-mixed's own ops do not reach from outside.
func (r *runner) sweepLibrary(g *marioh.Graph, model *marioh.Model, seed int64, want []byte) error {
	out, _ := r.replayRounds(-1, g, model, seed)
	r.same(encode(out), want, "round sweep")
	out, _ = r.replaySharded(-1, g, model, seed)
	r.same(encode(out), want, "sharded sweep")
	r.attempted += 2
	return r.sweepSession(g, model, seed, want)
}

// sweepServe exercises the serving layers once on a workload that does
// not serve: a fresh in-process mariohd is handed the model, computes g
// once (a miss) and answers four repeats from its dedup cache (hits).
func (r *runner) sweepServe(g *marioh.Graph, model *marioh.Model, seed int64, want []byte) error {
	d, err := bootDaemon(r.meta["nproc"].(int))
	if err != nil {
		return err
	}
	defer d.stop()
	c, tp := d.newClient("sweep")
	defer tp.CloseIdleConnections()
	raw, err := modelBytes(model)
	if err != nil {
		return err
	}
	if _, err := c.PushModel(context.Background(), servedModel, raw); err != nil {
		return err
	}
	text, err := graphText(g)
	if err != nil {
		return err
	}
	req := server.ReconstructRequest{Model: servedModel, Target: text, Options: server.OptionSpec{Seed: seed}}
	before, err := d.scrape(c)
	if err != nil {
		return err
	}
	ref := sha256.Sum256(want)
	ops := make([]serveOp, 5)
	for i := range ops {
		ops[i] = doRequest(c, req, 0, r.corrupt)
	}
	after, err := d.scrape(c)
	if err != nil {
		return err
	}
	for i, op := range ops {
		switch {
		case op.err != nil:
			r.opFailed("serve sweep request %d: %v", i, op.err)
		case op.sum != ref:
			r.opFailed("serve sweep request %d: output differs from the serial reference", i)
		}
	}
	r.attempted += len(ops)
	r.serveLayers(ops, map[string]bool{})
	r.admissionMetrics(before, after)
	return nil
}
