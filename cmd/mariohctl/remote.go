// The remote half of mariohctl: the client subcommands
// (`remote-reconstruct`, `jobs`, `models`, `push-model`) drive a running
// mariohd daemon over its /v1 API.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"marioh/internal/server"
)

// remoteFlags are the flags shared by every client subcommand: the
// daemon's base URL and the tenant identity sent with every request.
func remoteFlags(fs *flag.FlagSet) (base, tenant *string) {
	base = fs.String("server", "http://127.0.0.1:8080", "base URL of a running mariohd")
	tenant = fs.String("tenant", "", "tenant identity for the daemon's admission control (empty = \"default\")")
	return base, tenant
}

// remoteClient builds the API client for a remote subcommand.
func remoteClient(base, tenant string) *server.Client {
	c := server.NewClient(base)
	c.Tenant = tenant
	return c
}

func cmdRemoteReconstruct(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("remote-reconstruct", flag.ContinueOnError)
	base, tenant := remoteFlags(fs)
	model := fs.String("model", "", "registry model name (see models / push-model)")
	targetPath := fs.String("target", "", "target projected graph file(s), comma-separated")
	out := fs.String("out", "reconstructed.hg", "output hypergraph file (batch runs insert the target index)")
	seed := fs.Int64("seed", 1, "random seed")
	variant := fs.String("variant", "", "algorithm variant (empty = server default)")
	async := fs.Bool("async", false, "force asynchronous execution and poll the job")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *model == "" || *targetPath == "" {
		return usageError{msg: "remote-reconstruct: -model and -target are required"}
	}
	c := remoteClient(*base, *tenant)
	opts := server.OptionSpec{Seed: *seed, Variant: *variant}

	paths := strings.Split(*targetPath, ",")
	targets := make([]string, len(paths))
	for i, p := range paths {
		raw, err := os.ReadFile(strings.TrimSpace(p))
		if err != nil {
			return err
		}
		targets[i] = string(raw)
	}

	var results []server.ReconstructResult
	if len(targets) > 1 {
		info, err := c.ReconstructBatch(ctx, server.ReconstructRequest{Model: *model, Targets: targets, Options: opts})
		if err != nil {
			return err
		}
		fmt.Printf("submitted batch job %s (%d targets)\n", info.ID, len(targets))
		done, err := c.WaitJob(ctx, info.ID, 200*time.Millisecond)
		if err != nil {
			return err
		}
		var batch server.BatchResult
		if err := server.JobResult(done, &batch); err != nil {
			return err
		}
		results = batch.Results
	} else {
		req := server.ReconstructRequest{Model: *model, Target: targets[0], Options: opts}
		if *async {
			req.Async = async
		}
		resp, job, err := c.Reconstruct(ctx, req)
		if err != nil {
			return err
		}
		if job != nil {
			fmt.Printf("submitted job %s\n", job.ID)
			done, err := c.WaitJob(ctx, job.ID, 200*time.Millisecond)
			if err != nil {
				return err
			}
			var r server.ReconstructResult
			if err := server.JobResult(done, &r); err != nil {
				return err
			}
			results = []server.ReconstructResult{r}
		} else {
			results = []server.ReconstructResult{resp.Result}
		}
	}

	for i, r := range results {
		path := *out
		if len(results) > 1 {
			path = batchOutPath(*out, i)
		}
		if err := os.WriteFile(path, []byte(r.Hypergraph), 0o644); err != nil {
			return err
		}
		fmt.Printf("reconstructed %d unique hyperedges (%d occurrences) in %d rounds "+
			"(filter %.3fs, search %.3fs) -> %s\n",
			r.Unique, r.Total, r.Rounds, r.FilterSeconds, r.SearchSeconds, path)
	}
	return nil
}

func cmdJobs(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("jobs", flag.ContinueOnError)
	base, tenant := remoteFlags(fs)
	id := fs.String("id", "", "show one job instead of listing all")
	cancelID := fs.String("cancel", "", "request cancellation of a job")
	watch := fs.String("watch", "", "stream a job's SSE progress events to stdout")
	if err := parse(fs, args); err != nil {
		return err
	}
	c := remoteClient(*base, *tenant)
	switch {
	case *cancelID != "":
		info, err := c.CancelJob(ctx, *cancelID)
		if err != nil {
			return err
		}
		fmt.Printf("%s %s %s\n", info.ID, info.Kind, info.Status)
		return nil
	case *watch != "":
		return watchJob(ctx, c, *watch)
	case *id != "":
		info, err := c.Job(ctx, *id)
		if err != nil {
			return err
		}
		printJob(info)
		return nil
	default:
		jobs, err := c.Jobs(ctx)
		if err != nil {
			return err
		}
		for _, info := range jobs {
			printJob(info)
		}
		return nil
	}
}

func printJob(info server.JobInfo) {
	errText := ""
	if info.Error != "" {
		errText = "  error: " + info.Error
	}
	fmt.Printf("%s  %-11s  %-9s  events %-4d created %s%s\n",
		info.ID, info.Kind, info.Status, info.Events,
		info.Created.Format(time.RFC3339), errText)
}

func cmdModels(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("models", flag.ContinueOnError)
	base, tenant := remoteFlags(fs)
	pull := fs.String("pull", "", "download a model to -out instead of listing")
	out := fs.String("out", "model.json", "output file for -pull")
	del := fs.String("delete", "", "delete a model")
	if err := parse(fs, args); err != nil {
		return err
	}
	c := remoteClient(*base, *tenant)
	switch {
	case *pull != "":
		raw, err := c.PullModel(ctx, *pull)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("pulled %s (%d bytes) -> %s\n", *pull, len(raw), *out)
		return nil
	case *del != "":
		if err := c.DeleteModel(ctx, *del); err != nil {
			return err
		}
		fmt.Println("deleted", *del)
		return nil
	default:
		models, err := c.Models(ctx)
		if err != nil {
			return err
		}
		for _, m := range models {
			fmt.Printf("%-24s  %-12s  sizes %v  %d bytes  saved %s\n",
				m.Name, m.Featurizer, m.Sizes, m.Bytes, m.Saved.Format(time.RFC3339))
		}
		return nil
	}
}

func cmdPushModel(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("push-model", flag.ContinueOnError)
	base, tenant := remoteFlags(fs)
	name := fs.String("name", "", "registry name to store the model under")
	modelPath := fs.String("model", "model.json", "model file saved by `mariohctl train`")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *name == "" {
		return usageError{msg: "push-model: -name is required"}
	}
	raw, err := os.ReadFile(*modelPath)
	if err != nil {
		return err
	}
	c := remoteClient(*base, *tenant)
	info, err := c.PushModel(ctx, *name, raw)
	if err != nil {
		return err
	}
	fmt.Printf("pushed %s (%s, sizes %v, %d bytes)\n", info.Name, info.Featurizer, info.Sizes, info.Bytes)
	return nil
}

// watchJob streams a job's SSE events as plain lines.
func watchJob(ctx context.Context, c *server.Client, id string) error {
	// Verify the job exists for a friendly error before streaming.
	if _, err := c.Job(ctx, id); err != nil {
		return err
	}
	return streamEvents(ctx, c.Base+"/v1/jobs/"+id+"/events", c.Tenant)
}

// streamEvents prints an SSE stream's frames until it ends.
func streamEvents(ctx context.Context, url, tenant string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if tenant != "" {
		req.Header.Set(server.TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("jobs: watching events: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if line := sc.Text(); line != "" {
			fmt.Println(line)
		}
	}
	return sc.Err()
}
