package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"marioh"
)

// trainedModelBytes trains one tiny model and returns its serialization.
func trainedModelBytes(t *testing.T) []byte {
	t.Helper()
	src := testSource(t)
	rec, err := marioh.New(marioh.WithSeed(5), marioh.WithEpochs(5))
	if err != nil {
		t.Fatal(err)
	}
	m, err := rec.Train(context.Background(), src.Project(), src)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := marioh.SaveModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRegistryMemoryRoundTrip(t *testing.T) {
	raw := trainedModelBytes(t)
	reg, err := NewRegistry("", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("a", raw); err != nil {
		t.Fatal(err)
	}
	got, err := reg.Raw("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("raw bytes do not round-trip")
	}
	m, err := reg.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if m.Feat.Name() != "marioh" {
		t.Fatalf("decoded featurizer = %q", m.Feat.Name())
	}
	// Get must hit the cache: same pointer on repeat.
	m2, err := reg.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if m != m2 {
		t.Fatal("second Get must return the cached decode")
	}
	if _, err := reg.Get("missing"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("missing model error = %v", err)
	}
}

func TestRegistryDiskPersistsAndReindexes(t *testing.T) {
	raw := trainedModelBytes(t)
	dir := t.TempDir()
	reg, err := NewRegistry(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("keeper", raw); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "keeper"+modelExt)); err != nil {
		t.Fatalf("model file not on disk: %v", err)
	}

	// A fresh registry over the same directory sees the model.
	reg2, err := NewRegistry(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	list := reg2.List()
	if len(list) != 1 || list[0].Name != "keeper" || list[0].Bytes != len(raw) {
		t.Fatalf("reindexed list = %+v", list)
	}
	if _, err := reg2.Get("keeper"); err != nil {
		t.Fatal(err)
	}

	// Corrupted strays are skipped by List, not fatal.
	if err := os.WriteFile(filepath.Join(dir, "junk"+modelExt), []byte("nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg3, err := NewRegistry(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if list := reg3.List(); len(list) != 1 {
		t.Fatalf("corrupted entry leaked into list: %+v", list)
	}

	if err := reg2.Delete("keeper"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "keeper"+modelExt)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("delete must remove the file")
	}
	if err := reg2.Delete("keeper"); !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("double delete = %v", err)
	}
}

// TestRegistryPutStorageFailureIs500: a model write the disk refuses
// answers 500 storage, not 400, and registers nothing. The registry
// directory is removed rather than made read-only, because a process
// running as root ignores permission bits.
func TestRegistryPutStorageFailureIs500(t *testing.T) {
	raw := trainedModelBytes(t)
	dir := filepath.Join(t.TempDir(), "models")
	_, c := newTestServer(t, func(cfg *Config) { cfg.ModelsDir = dir })
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	resp := doTenant(t, http.MethodPut, c.Base+"/v1/models/lost", "", raw)
	if resp.StatusCode != http.StatusInternalServerError {
		resp.Body.Close()
		t.Fatalf("PUT into a removed registry dir = %d, want 500", resp.StatusCode)
	}
	if e := decodeEnvelope(t, resp); e.Code != CodeStorage {
		t.Fatalf("PUT into a removed registry dir: code %q, want %q", e.Code, CodeStorage)
	}
	models, err := c.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 0 {
		t.Fatalf("a failed PUT registered %+v", models)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	raw := trainedModelBytes(t)
	reg, err := NewRegistry("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("a", raw); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put("b", raw); err != nil { // evicts a from the cache
		t.Fatal(err)
	}
	ma1, err := reg.Get("a") // re-decoded (cache miss), evicts b
	if err != nil {
		t.Fatal(err)
	}
	mb, err := reg.Get("b")
	if err != nil {
		t.Fatal(err)
	}
	ma2, err := reg.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if ma1 == ma2 {
		t.Fatal("a must have been evicted and re-decoded after b's Get")
	}
	if mb == nil || ma1 == nil {
		t.Fatal("models must decode")
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	raw := trainedModelBytes(t)
	reg, err := NewRegistry(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"", "..", "../evil", "a/b", ".hidden", "x y"} {
		if err := reg.Put(name, raw); err == nil {
			t.Fatalf("name %q must be rejected", name)
		}
		if _, err := reg.Get(name); err == nil {
			t.Fatalf("Get(%q) must be rejected", name)
		}
	}
	if err := reg.Put("ok-name.v1", raw); err != nil {
		t.Fatalf("valid name rejected: %v", err)
	}
	if err := reg.Put("x", []byte(`{"featurizer":"marioh"}`)); err == nil {
		t.Fatal("incomplete model must be rejected")
	}
}
