// The incremental half of mariohctl: `session` replays an edge-delta
// stream against an incremental reconstruction session — in-process with
// a model file, or against a running mariohd — and `mutate` materializes
// the mutated graph a delta stream produces (the input for from-scratch
// golden runs).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"marioh"
	"marioh/internal/server"
)

// readDeltaFile loads an edge-delta stream from disk.
func readDeltaFile(path string) ([]marioh.DeltaOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return marioh.ReadDeltas(f)
}

// readGraphFile loads a projected graph from disk.
func readGraphFile(path string) (*marioh.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return marioh.ReadGraph(f)
}

// splitBatches cuts a delta stream into batches of at most size ops
// (size <= 0 keeps one batch). An empty stream still yields one empty
// batch, so a session always performs its initial build.
func splitBatches(ops []marioh.DeltaOp, size int) [][]marioh.DeltaOp {
	if size <= 0 || len(ops) <= size {
		return [][]marioh.DeltaOp{ops}
	}
	var out [][]marioh.DeltaOp
	for len(ops) > 0 {
		n := size
		if n > len(ops) {
			n = len(ops)
		}
		out = append(out, ops[:n])
		ops = ops[n:]
	}
	return out
}

// cmdSession replays a delta file through an incremental session. With
// -server it drives a remote mariohd session (the model must already be
// in the daemon's registry); otherwise it opens an in-process session
// from a model file. -batch applies the stream in batches; -verify
// (local only) rebuilds the mutated graph from scratch after every batch
// and fails unless the session output is byte-identical.
func cmdSession(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("session", flag.ContinueOnError)
	base := fs.String("server", "", "base URL of a running mariohd (empty = in-process session)")
	tenant := fs.String("tenant", "", "tenant identity for the daemon's admission control (empty = \"default\")")
	modelPath := fs.String("model", "model.json", "trained model file (local) or registry model name (remote)")
	graphPath := fs.String("graph", "", "base projected graph file")
	deltaPath := fs.String("deltas", "", "edge-delta stream file (empty = initial build only)")
	batch := fs.Int("batch", 0, "ops per Apply batch (0 = one batch)")
	verify := fs.Bool("verify", false, "after every batch, compare against a from-scratch rebuild (local only)")
	keep := fs.Bool("keep", false, "keep the remote session instead of deleting it when done")
	out := fs.String("out", "reconstructed.hg", "output hypergraph file (final state)")
	dir := fs.String("dir", "", "durable session directory: WAL + snapshots, crash-recoverable (local only)")
	resume := fs.Bool("resume", false, "resume the durable session in -dir instead of creating one")
	sessionID := fs.String("session", "", "existing session ID to resume instead of creating one (remote only)")
	snapEvery := fs.Int("snapshot-every", 0, "WAL records between engine snapshots for -dir sessions (0 = default)")
	noFsync := fs.Bool("no-fsync", false, "skip fsync on WAL appends for -dir sessions (kill-safe, not power-loss-safe)")
	sf := addServiceFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	resuming := (*resume && *dir != "") || (*sessionID != "" && *base != "")
	if *graphPath == "" && !resuming {
		return usageError{msg: "session: -graph is required (unless resuming via -resume/-session)"}
	}
	if *verify && *base != "" {
		return usageError{msg: "session: -verify needs the model locally; drop -server"}
	}
	if *dir != "" && *base != "" {
		return usageError{msg: "session: -dir is local-only; the daemon persists sessions under its own -data-dir"}
	}
	if *resume && *dir == "" {
		return usageError{msg: "session: -resume needs -dir (use -session <id> to resume a remote session)"}
	}
	if *sessionID != "" && *base == "" {
		return usageError{msg: "session: -session resumes a remote session; it needs -server"}
	}

	var ops []marioh.DeltaOp
	if *deltaPath != "" {
		var err error
		if ops, err = readDeltaFile(*deltaPath); err != nil {
			return err
		}
	}
	batches := splitBatches(ops, *batch)

	if *base != "" {
		spec := server.OptionSpec{
			Seed:      *sf.seed,
			Variant:   *sf.variant,
			ThetaInit: sf.theta,
			R:         sf.ratio,
			Alpha:     sf.alpha,
		}
		return remoteSession(ctx, remoteClient(*base, *tenant), *modelPath, *graphPath, *sessionID, spec, batches, *out, *keep)
	}

	mf, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	model, err := marioh.LoadModel(mf)
	mf.Close()
	if err != nil {
		return err
	}
	var g *marioh.Graph
	if *graphPath != "" {
		if g, err = readGraphFile(*graphPath); err != nil {
			return err
		}
	}
	opts, err := sf.options(marioh.WithModel(model))
	if err != nil {
		return err
	}
	r, err := marioh.New(opts...)
	if err != nil {
		return err
	}
	var sess *marioh.Session
	switch {
	case *dir != "" && (*resume || marioh.HasDurableSession(*dir)):
		dopts := marioh.DurableOptions{Dir: *dir, NoFsync: *noFsync, SnapshotEvery: *snapEvery, Logf: logNotice}
		if sess, err = r.NewSession(ctx, marioh.SessionConfig{Durable: &dopts, Resume: true}); err != nil {
			return err
		}
		st := sess.Stats()
		fmt.Printf("resumed durable session in %s: %d applies, recovery %s (%d WAL records replayed)\n",
			*dir, st.Applies, st.RecoveryOutcome, st.Replayed)
		// A batch that reached the WAL before the crash was recovered;
		// replay only the suffix the session never acknowledged.
		batches = skipApplied(batches, st.Applies)
	case *dir != "":
		dopts := marioh.DurableOptions{Dir: *dir, NoFsync: *noFsync, SnapshotEvery: *snapEvery, Logf: logNotice}
		if sess, err = r.NewSession(ctx, marioh.SessionConfig{Graph: g, Durable: &dopts}); err != nil {
			return err
		}
		fmt.Printf("opened durable session in %s\n", *dir)
	default:
		if sess, err = r.NewSession(ctx, marioh.SessionConfig{Graph: g}); err != nil {
			return err
		}
	}
	defer sess.Close()

	shadow := sess.Graph()
	var res *marioh.Result
	for bi, b := range batches {
		for _, op := range b {
			applyOpTo(shadow, op)
		}
		if res, err = sess.Apply(ctx, marioh.Delta{Ops: b}); err != nil {
			return err
		}
		st := sess.Stats()
		fmt.Printf("batch %d/%d: %d ops, %d/%d components recomputed, %d unique hyperedges\n",
			bi+1, len(batches), len(b), res.DirtyComponents, st.Components, res.Hypergraph.NumUnique())
		if *verify {
			want, err := r.Reconstruct(ctx, shadow)
			if err != nil {
				return err
			}
			var got, ref bytes.Buffer
			if err := res.Hypergraph.Write(&got); err != nil {
				return err
			}
			if err := want.Hypergraph.Write(&ref); err != nil {
				return err
			}
			if !bytes.Equal(got.Bytes(), ref.Bytes()) {
				return fmt.Errorf("session: batch %d output diverges from from-scratch rebuild", bi+1)
			}
			fmt.Printf("   verified byte-identical to a from-scratch rebuild\n")
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Hypergraph.Write(f); err != nil {
		return err
	}
	fmt.Printf("session final state: %d unique hyperedges (%d occurrences) -> %s\n",
		res.Hypergraph.NumUnique(), res.Hypergraph.NumTotal(), *out)
	return f.Close()
}

// skipApplied is the resume rule of local durable and remote sessions:
// the first n batches of the stream already landed, so replay only the
// suffix — or a single empty batch re-emitting the final state when
// everything landed.
func skipApplied(batches [][]marioh.DeltaOp, n int) [][]marioh.DeltaOp {
	if n >= len(batches) {
		fmt.Printf("all %d batches already applied; re-emitting the final state\n", len(batches))
		return [][]marioh.DeltaOp{nil}
	}
	if n > 0 {
		fmt.Printf("skipping %d already-applied batches\n", n)
		return batches[n:]
	}
	return batches
}

// logNotice surfaces durability recovery/degradation notices on stderr.
func logNotice(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mariohctl: "+format+"\n", args...)
}

// applyOpTo replays one delta op onto a plain graph.
func applyOpTo(g *marioh.Graph, op marioh.DeltaOp) {
	top := op.U
	if op.V > top {
		top = op.V
	}
	g.EnsureNodes(top + 1)
	switch op.Kind {
	case marioh.DeltaAdd:
		g.AddWeight(op.U, op.V, op.W)
	case marioh.DeltaRemove:
		g.RemoveEdge(op.U, op.V)
	case marioh.DeltaSet:
		g.SetWeight(op.U, op.V, op.W)
	}
}

// remoteSession drives the /v1/sessions API of a running daemon. With a
// sessionID it resumes that session (the daemon rehydrates a parked
// durable session transparently) instead of creating one; every apply
// carries a Seq guard so an ambiguous retry can never double-apply a
// batch.
func remoteSession(ctx context.Context, c *server.Client, model, graphPath, sessionID string, spec server.OptionSpec, batches [][]marioh.DeltaOp, out string, keep bool) error {
	var info server.SessionInfo
	var err error
	if sessionID != "" {
		if info, err = c.Session(ctx, sessionID); err != nil {
			return err
		}
		fmt.Printf("resumed session %s (%d nodes, %d edges, %d applies", info.ID, info.Nodes, info.Edges, info.Applies)
		if info.Recovery != "" {
			fmt.Printf(", recovery %s", info.Recovery)
		}
		fmt.Printf(")\n")
		keep = true // an attached session is not ours to delete
		batches = skipApplied(batches, info.Applies)
	} else {
		raw, err := os.ReadFile(graphPath)
		if err != nil {
			return err
		}
		if info, err = c.CreateSession(ctx, server.SessionRequest{Model: model, Graph: string(raw), Options: spec}); err != nil {
			return err
		}
		fmt.Printf("opened session %s (%d nodes, %d edges)\n", info.ID, info.Nodes, info.Edges)
	}
	if !keep {
		defer func() {
			cleanupCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := c.DeleteSession(cleanupCtx, info.ID); err != nil {
				fmt.Fprintln(os.Stderr, "mariohctl: deleting session:", err)
			}
		}()
	}
	var last server.ReconstructResult
	applied := info.Applies
	resynced := false
	for bi := 0; bi < len(batches); bi++ {
		b := batches[bi]
		var buf bytes.Buffer
		if err := marioh.WriteDeltas(&buf, b); err != nil {
			return err
		}
		seq := applied + bi
		resp, job, err := c.ApplySession(ctx, info.ID, server.SessionApplyRequest{Deltas: buf.String(), Seq: &seq})
		if err != nil {
			// A parked session's meta can run one apply behind a crash; the
			// seq guard catches the stale counter instead of double-applying.
			// The conflict loaded the session server-side, so one re-read
			// yields the true counter — re-slice and continue.
			if sessionID != "" && bi == 0 && !resynced && strings.Contains(err.Error(), "seq guard") {
				resynced = true
				fresh, ferr := c.Session(ctx, sessionID)
				if ferr != nil {
					return ferr
				}
				if extra := fresh.Applies - applied; extra > 0 {
					fmt.Printf("session advanced to %d applies since the parked listing; resyncing\n", fresh.Applies)
					batches = skipApplied(batches, extra)
					applied = fresh.Applies
					bi = -1
					continue
				}
				return err
			}
			return err
		}
		if job != nil {
			done, err := c.WaitJob(ctx, job.ID, 200*time.Millisecond)
			if err != nil {
				return err
			}
			if err := server.JobResult(done, &last); err != nil {
				return err
			}
		} else {
			last = resp.Result
		}
		fmt.Printf("batch %d/%d: %d ops, %d components recomputed, %d unique hyperedges\n",
			bi+1, len(batches), len(b), last.Dirty, last.Unique)
	}
	if err := os.WriteFile(out, []byte(last.Hypergraph), 0o644); err != nil {
		return err
	}
	fmt.Printf("session final state: %d unique hyperedges (%d occurrences) -> %s\n", last.Unique, last.Total, out)
	return nil
}

// cmdMutate applies a delta stream to a graph file and writes the mutated
// graph — the input a from-scratch golden reconstruction needs to compare
// against a session replay.
func cmdMutate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "base projected graph file")
	deltaPath := fs.String("deltas", "", "edge-delta stream file")
	out := fs.String("out", "mutated.graph", "output graph file")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *graphPath == "" || *deltaPath == "" {
		return usageError{msg: "mutate: -graph and -deltas are required"}
	}
	g, err := readGraphFile(*graphPath)
	if err != nil {
		return err
	}
	ops, err := readDeltaFile(*deltaPath)
	if err != nil {
		return err
	}
	for _, op := range ops {
		applyOpTo(g, op)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := g.Write(f); err != nil {
		return err
	}
	fmt.Printf("applied %d ops: %d nodes, %d edges -> %s\n", len(ops), g.NumNodes(), g.NumEdges(), *out)
	return f.Close()
}
