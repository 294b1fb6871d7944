// Command mariohctl is the operational CLI of the MARIOH reproduction:
// generate datasets, train + reconstruct (with cancellation and progress),
// and evaluate reconstructions. Every subcommand honors Ctrl-C via
// context cancellation. The remote subcommands drive a running mariohd
// daemon (cmd/mariohd).
//
// Usage:
//
//	mariohctl datasets
//	mariohctl version
//	mariohctl gen -dataset crime -seed 1 -out ./data
//	mariohctl reconstruct -train ./data/crime.source.hg -target ./data/crime.target.graph -out ./rec.hg
//	mariohctl reconstruct -train src.hg -target a.graph,b.graph -parallel 4 -out rec.hg
//	mariohctl eval -truth ./data/crime.target.hg -rec ./rec.hg
//	mariohctl demo -dataset hosts -variant marioh-b -progress
//	mariohctl remote-reconstruct -server http://127.0.0.1:8080 -model m1 -target a.graph -out rec.hg
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"marioh"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:]))
}

// run dispatches a subcommand and maps errors to exit codes: 2 for usage
// errors (unknown commands, bad flags), 1 for runtime failures.
func run(ctx context.Context, args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	var err error
	switch args[0] {
	case "datasets":
		for _, n := range marioh.DatasetNames() {
			fmt.Println(n)
		}
	case "version":
		fmt.Println("mariohctl", marioh.Version)
	case "gen":
		err = cmdGen(ctx, args[1:])
	case "reconstruct":
		err = cmdReconstruct(ctx, args[1:])
	case "train":
		err = cmdTrain(ctx, args[1:])
	case "apply":
		err = cmdApply(ctx, args[1:])
	case "eval":
		err = cmdEval(args[1:])
	case "session":
		err = cmdSession(ctx, args[1:])
	case "mutate":
		err = cmdMutate(ctx, args[1:])
	case "demo":
		err = cmdDemo(ctx, args[1:])
	case "remote-reconstruct":
		err = cmdRemoteReconstruct(ctx, args[1:])
	case "jobs":
		err = cmdJobs(ctx, args[1:])
	case "models":
		err = cmdModels(ctx, args[1:])
	case "push-model":
		err = cmdPushModel(ctx, args[1:])
	case "help", "-h", "-help", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mariohctl: unknown command %q\n\n", args[0])
		usage()
		return 2
	}
	switch {
	case err == nil:
		return 0
	case err == flag.ErrHelp:
		// Asking for help is not an error (matching flag.ExitOnError).
		return 0
	default:
		fmt.Fprintln(os.Stderr, "mariohctl:", err)
		if _, ok := err.(usageError); ok {
			usage()
			return 2
		}
		return 1
	}
}

// usageError marks failures that should re-print the global usage and exit
// with the usage status code.
type usageError struct{ msg string }

func (e usageError) Error() string { return e.msg }

func usage() {
	fmt.Fprintf(os.Stderr, `usage: mariohctl <command> [flags]

commands:
  datasets     list the available synthetic dataset analogs
  version      print the marioh module version
  gen          generate a dataset to disk (source/target hypergraphs + target graph)
  reconstruct  train on a source hypergraph and reconstruct target graph(s)
  train        train a classifier on a source hypergraph and save it as JSON
  apply        reconstruct target graph(s) with a previously saved model
  eval         compare a reconstruction against the ground truth
  demo         end-to-end run on one dataset, printing accuracy
  session      replay an edge-delta stream through an incremental session
               (durable + crash-resumable with -dir / -resume; -session resumes a remote one)
               (in-process, or on a daemon with -server)
  mutate       apply an edge-delta stream to a graph file
  help         print this message

remote (drive a running mariohd daemon):
  remote-reconstruct reconstruct target graph(s) through a running daemon
  jobs               list, inspect, watch (-watch SSE) or cancel server jobs
  models             list, pull or delete registry models on a daemon
  push-model         upload a trained model file into a daemon's registry

variants: %s
featurizers: %s
`, strings.Join(marioh.VariantNames(), " | "), strings.Join(marioh.FeaturizerNames(), " | "))
}

// parse runs fs over args with errors reported instead of os.Exit, so
// run() can produce a proper non-zero status and usage text.
func parse(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return err
		}
		return usageError{msg: fmt.Sprintf("%s: %v", fs.Name(), err)}
	}
	if fs.NArg() > 0 {
		return usageError{msg: fmt.Sprintf("%s: unexpected arguments %q", fs.Name(), fs.Args())}
	}
	return nil
}

// serviceFlags are the flags shared by every subcommand that builds a
// Reconstructor.
type serviceFlags struct {
	seed     *int64
	variant  *string
	theta    *float64
	ratio    *float64
	alpha    *float64
	parallel *int
	progress *bool
}

func addServiceFlags(fs *flag.FlagSet) *serviceFlags {
	return &serviceFlags{
		seed:     fs.Int64("seed", 1, "random seed"),
		variant:  fs.String("variant", "marioh", "algorithm variant: "+strings.Join(marioh.VariantNames(), " | ")),
		theta:    fs.Float64("theta", 0.9, "initial classification threshold"),
		ratio:    fs.Float64("r", 40, "negative prediction processing ratio (%)"),
		alpha:    fs.Float64("alpha", 1.0/20, "threshold adjust ratio"),
		parallel: fs.Int("parallel", 0, "worker bound for batch targets, session components and the round engine: its seed loop, component search and Phase 2 scoring (0 = GOMAXPROCS; output is identical at every setting)"),
		progress: fs.Bool("progress", false, "print per-round progress to stderr"),
	}
}

func (sf *serviceFlags) options(extra ...marioh.Option) ([]marioh.Option, error) {
	opts := []marioh.Option{
		marioh.WithSeed(*sf.seed),
		marioh.WithVariant(*sf.variant),
		marioh.WithThetaInit(*sf.theta),
		marioh.WithR(*sf.ratio),
		marioh.WithAlpha(*sf.alpha),
		marioh.WithParallelism(*sf.parallel),
	}
	if *sf.progress {
		opts = append(opts, marioh.WithProgress(func(p marioh.Progress) {
			tag := fmt.Sprintf("t%d", p.Target)
			if p.Round == 0 {
				fmt.Fprintf(os.Stderr, "  [%s] filtered %d size-2 occurrences, %d edges remain\n",
					tag, p.AcceptedRound, p.EdgesRemaining)
				return
			}
			fmt.Fprintf(os.Stderr, "  [%s] round %d: θ=%.3f accepted %d (total %d), %d edges remain\n",
				tag, p.Round, p.Theta, p.AcceptedRound, p.AcceptedTotal, p.EdgesRemaining)
		}))
	}
	return append(opts, extra...), nil
}

func cmdGen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	name := fs.String("dataset", "crime", "dataset analog name")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("out", ".", "output directory")
	reduced := fs.Bool("reduced", true, "reduce hyperedge multiplicities to 1")
	if err := parse(fs, args); err != nil {
		return err
	}

	ds, err := marioh.GenerateDataset(*name, *seed)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	src, tgt := ds.Source, ds.Target
	if *reduced {
		src, tgt = src.Reduced(), tgt.Reduced()
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	write := func(suffix string, fn func(f *os.File) error) error {
		path := filepath.Join(*out, *name+suffix)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := fn(f); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return f.Close()
	}
	if err := write(".source.hg", func(f *os.File) error { return src.Write(f) }); err != nil {
		return err
	}
	if err := write(".target.hg", func(f *os.File) error { return tgt.Write(f) }); err != nil {
		return err
	}
	return write(".target.graph", func(f *os.File) error { return tgt.Project().Write(f) })
}

func cmdReconstruct(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("reconstruct", flag.ContinueOnError)
	trainPath := fs.String("train", "", "source hypergraph file (supervision)")
	targetPath := fs.String("target", "", "target projected graph file(s), comma-separated")
	out := fs.String("out", "reconstructed.hg", "output hypergraph file (batch runs insert the target index)")
	epochs := fs.Int("epochs", 60, "training epochs")
	sf := addServiceFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *trainPath == "" || *targetPath == "" {
		return usageError{msg: "reconstruct: -train and -target are required"}
	}

	src, err := readHypergraphFile(*trainPath)
	if err != nil {
		return err
	}
	opts, err := sf.options(marioh.WithEpochs(*epochs))
	if err != nil {
		return err
	}
	r, err := marioh.New(opts...)
	if err != nil {
		return err
	}
	if _, err := r.Train(ctx, src.Project(), src); err != nil {
		return err
	}
	return reconstructTargets(ctx, r, strings.Split(*targetPath, ","), *out)
}

func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	trainPath := fs.String("train", "", "source hypergraph file (supervision)")
	out := fs.String("out", "model.json", "output model file")
	seed := fs.Int64("seed", 1, "random seed")
	featurizer := fs.String("features", "marioh", "featurizer: "+strings.Join(marioh.FeaturizerNames(), " | "))
	epochs := fs.Int("epochs", 60, "training epochs")
	ratio := fs.Float64("supervision", 1.0, "fraction of source hyperedges used")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *trainPath == "" {
		return usageError{msg: "train: -train is required"}
	}
	src, err := readHypergraphFile(*trainPath)
	if err != nil {
		return err
	}
	r, err := marioh.New(
		marioh.WithSeed(*seed),
		marioh.WithFeaturizer(*featurizer),
		marioh.WithEpochs(*epochs),
		marioh.WithSupervisionRatio(*ratio),
	)
	if err != nil {
		return err
	}
	model, err := r.Train(ctx, src.Project(), src)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := model.Save(f); err != nil {
		return err
	}
	fmt.Printf("trained on %d positives / %d negatives (sample %.3fs, train %.3fs) -> %s\n",
		model.Stats.Positives, model.Stats.Negatives,
		model.Stats.SampleTime.Seconds(), model.Stats.TrainTime.Seconds(), *out)
	return f.Close()
}

func cmdApply(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("apply", flag.ContinueOnError)
	modelPath := fs.String("model", "model.json", "trained model file")
	targetPath := fs.String("target", "", "target projected graph file(s), comma-separated")
	out := fs.String("out", "reconstructed.hg", "output hypergraph file (batch runs insert the target index)")
	sf := addServiceFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *targetPath == "" {
		return usageError{msg: "apply: -target is required"}
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
	opts, err := sf.options(marioh.WithModel(model))
	if err != nil {
		return err
	}
	r, err := marioh.New(opts...)
	if err != nil {
		return err
	}
	return reconstructTargets(ctx, r, strings.Split(*targetPath, ","), *out)
}

// reconstructTargets reconstructs every target graph (a batch run when
// more than one) and writes each result next to the requested out path.
func reconstructTargets(ctx context.Context, r *marioh.Reconstructor, paths []string, out string) error {
	var graphs []*marioh.Graph
	for _, p := range paths {
		f, err := os.Open(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		g, err := marioh.ReadGraph(f)
		f.Close()
		if err != nil {
			return err
		}
		graphs = append(graphs, g)
	}
	results, err := r.ReconstructBatch(ctx, graphs)
	if err != nil {
		return err
	}
	for i, res := range results {
		path := out
		if len(results) > 1 {
			path = batchOutPath(out, i)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := res.Hypergraph.Write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("reconstructed %d unique hyperedges (%d occurrences) in %d rounds "+
			"(filter %.3fs, search %.3fs) -> %s\n",
			res.Hypergraph.NumUnique(), res.Hypergraph.NumTotal(), res.Times.Rounds,
			res.Times.Filtering.Seconds(), res.Times.Bidirectional.Seconds(), path)
	}
	return nil
}

func cmdEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	truthPath := fs.String("truth", "", "ground-truth hypergraph file")
	recPath := fs.String("rec", "", "reconstructed hypergraph file")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *truthPath == "" || *recPath == "" {
		return usageError{msg: "eval: -truth and -rec are required"}
	}
	truth, err := readHypergraphFile(*truthPath)
	if err != nil {
		return err
	}
	rec, err := readHypergraphFile(*recPath)
	if err != nil {
		return err
	}
	fmt.Printf("Jaccard       %.4f\n", marioh.Jaccard(truth, rec))
	fmt.Printf("multi-Jaccard %.4f\n", marioh.MultiJaccard(truth, rec))
	return nil
}

func cmdDemo(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	name := fs.String("dataset", "hosts", "dataset analog name")
	epochs := fs.Int("epochs", 60, "training epochs")
	sf := addServiceFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}

	opts, err := sf.options(marioh.WithEpochs(*epochs))
	if err != nil {
		return err
	}
	r, err := marioh.New(opts...)
	if err != nil {
		return err
	}
	pr, err := r.Pipeline(ctx, *name)
	if err != nil {
		return err
	}
	fmt.Printf("dataset %s: source %d hyperedges, target %d hyperedges\n",
		*name, pr.Dataset.Source.Reduced().NumUnique(), pr.Dataset.Target.Reduced().NumUnique())
	fmt.Printf("reconstructed %d hyperedges, Jaccard %.4f, multi-Jaccard %.4f (filter %.3fs, search %.3fs)\n",
		pr.Result.Hypergraph.NumUnique(), pr.Jaccard, pr.MultiJaccard,
		pr.Result.Times.Filtering.Seconds(), pr.Result.Times.Bidirectional.Seconds())
	return nil
}

// batchOutPath derives the per-target output path of a batch run by
// inserting the target index before the extension.
func batchOutPath(out string, i int) string {
	ext := filepath.Ext(out)
	return fmt.Sprintf("%s.%d%s", strings.TrimSuffix(out, ext), i, ext)
}

func readHypergraphFile(path string) (*marioh.Hypergraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return marioh.ReadHypergraph(f)
}
