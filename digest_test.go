//go:build amd64

package marioh_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"marioh"
)

// -update re-records testdata/digests.txt. Run it only after a reviewed,
// deliberate change that moves model or reconstruction bytes:
//
//	go test -run TestByteDigests -update .
var update = flag.Bool("update", false, "rewrite testdata/digests.txt")

const digestsPath = "testdata/digests.txt"

// TestByteDigests pins the byte contract through the public API, one
// SHA-256 per fixture in testdata/digests.txt:
//
//   - "model <dataset> <featurizer>": the SaveModel bytes of the model
//     marioh.New(WithFeaturizer, WithSeed(1)).Train fits, with the default
//     60 epochs, on the dataset's reduced source half;
//   - "reconstruct <dataset> <variant>": the variant's reconstruction of
//     the dataset's reduced target projection, with seed 1 and eu's model
//     of the variant's featurizer, as Hypergraph.Write writes it and then
//     in first-insertion order (Each), which every parallelism keeps too
//     and which Write's sorted lines would not show. Each runs at
//     WithParallelism 1 and 2, and once more inside one ReconstructBatch
//     of the three targets; all three must match the one digest.
//
// Every dataset is generated with seed 1. One model reconstructs all three
// targets so that the batch, which holds one model, runs the same
// reconstructions. Pinned on amd64 only, as TestTrainedModelBytes is: other
// GOARCHes may fuse a multiply-add.
func TestByteDigests(t *testing.T) {
	ctx := context.Background()
	dsNames := []string{"crime", "hosts", "eu"}
	var keys []string
	got := map[string]string{}
	record := func(key string, b []byte) {
		keys = append(keys, key)
		got[key] = fmt.Sprintf("%x", sha256.Sum256(b))
	}

	var targets []*marioh.Graph
	euModels := map[string]*marioh.Model{} // by featurizer
	for _, name := range dsNames {
		ds, err := marioh.GenerateDataset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		src := ds.Source.Reduced()
		targets = append(targets, ds.Target.Reduced().Project())
		for _, feat := range []string{"marioh", "shyre-count"} {
			r, err := marioh.New(marioh.WithFeaturizer(feat), marioh.WithSeed(1))
			if err != nil {
				t.Fatal(err)
			}
			m, err := r.Train(ctx, src.Project(), src)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := marioh.SaveModel(&buf, m); err != nil {
				t.Fatal(err)
			}
			record(fmt.Sprintf("model %s %s", name, feat), buf.Bytes())
			if name == "eu" {
				euModels[feat] = m
			}
		}
	}

	write := func(res *marioh.Result) []byte {
		var buf bytes.Buffer
		if err := res.Hypergraph.Write(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("# first-insertion order\n")
		res.Hypergraph.Each(func(nodes []int, mult int) {
			fmt.Fprintln(&buf, mult, nodes)
		})
		return buf.Bytes()
	}
	for _, variant := range marioh.VariantNames() {
		feat := "marioh"
		if variant == "marioh-m" {
			feat = "shyre-count"
		}
		newRec := func(parallelism int) *marioh.Reconstructor {
			r, err := marioh.New(marioh.WithVariant(variant), marioh.WithSeed(1),
				marioh.WithParallelism(parallelism), marioh.WithModel(euModels[feat]))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		for i, name := range dsNames {
			key := fmt.Sprintf("reconstruct %s %s", name, variant)
			var first []byte
			for _, p := range []int{1, 2} {
				res, err := newRec(p).Reconstruct(ctx, targets[i])
				if err != nil {
					t.Fatal(err)
				}
				if b := write(res); first == nil {
					first = b
					record(key, b)
				} else if !bytes.Equal(b, first) {
					t.Errorf("%s: bytes at WithParallelism(%d) differ from WithParallelism(1)", key, p)
				}
			}
		}
		results, err := newRec(2).ReconstructBatch(ctx, targets)
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range dsNames {
			key := fmt.Sprintf("reconstruct %s %s", name, variant)
			if sum := fmt.Sprintf("%x", sha256.Sum256(write(results[i]))); sum != got[key] {
				t.Errorf("%s: ReconstructBatch bytes differ from Reconstruct's", key)
			}
		}
	}

	if *update {
		var out strings.Builder
		out.WriteString("# SHA-256 digests pinned by TestByteDigests (digest_test.go); re-record with -update.\n")
		for _, k := range keys {
			fmt.Fprintf(&out, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d digests in %s", len(keys), digestsPath)
		return
	}
	want := readDigests(t)
	for _, k := range keys {
		if w, ok := want[k]; !ok {
			t.Errorf("%s: no recorded digest (run with -update to record)", k)
		} else if got[k] != w {
			t.Errorf("%s: SHA-256 %s, want %s", k, got[k], w)
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: recorded in %s but no longer computed", k, digestsPath)
		}
	}
}

// readDigests parses testdata/digests.txt: "#" comment lines, then one
// "<fixture words...> <sha256>" line per fixture.
func readDigests(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(digestsPath)
	if err != nil {
		t.Fatalf("missing digest table (run with -update to record): %v", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", digestsPath, line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
