package service

import (
	"strings"
	"testing"

	"marioh/internal/features"
)

func TestVariantRegistry(t *testing.T) {
	names := VariantNames()
	if len(names) != 4 || names[0] != "marioh" {
		t.Fatalf("VariantNames = %v", names)
	}
	for _, name := range names {
		v, ok := VariantByName(name)
		if !ok {
			t.Fatalf("VariantByName(%q) missing", name)
		}
		if v.Name != name || v.Description == "" {
			t.Fatalf("bad descriptor for %q: %+v", name, v)
		}
		if _, ok := features.ByName(v.Featurizer); !ok {
			t.Fatalf("variant %q references unknown featurizer %q", name, v.Featurizer)
		}
	}
	if _, ok := VariantByName("nope"); ok {
		t.Fatal("unknown variant must not resolve")
	}
	full, _ := VariantByName("marioh")
	if full.DisableFiltering || full.DisableBidirectional {
		t.Fatal("full variant must enable every step")
	}
	fv, _ := VariantByName("marioh-f")
	if !fv.DisableFiltering {
		t.Fatal("marioh-f must disable filtering")
	}
	bv, _ := VariantByName("marioh-b")
	if !bv.DisableBidirectional {
		t.Fatal("marioh-b must disable bidirectional search")
	}
}

// TestFeaturizerResolution: every name features.Names lists resolves
// through Resolve to the featurizer of that name, over any variant's
// default, and an unknown name fails with an error listing the built-ins.
func TestFeaturizerResolution(t *testing.T) {
	names := features.Names()
	if len(names) == 0 {
		t.Fatal("features.Names lists no featurizer")
	}
	for _, name := range names {
		_, f, err := Resolve("marioh-m", name)
		if err != nil {
			t.Fatalf("Resolve(marioh-m, %q): %v", name, err)
		}
		if f.Name() != name {
			t.Fatalf("featurizer %q reports name %q", name, f.Name())
		}
	}
	_, _, err := Resolve("", "nope")
	if err == nil {
		t.Fatal("unknown featurizer must not resolve")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list featurizer %q", err, name)
		}
	}
}

func TestResolve(t *testing.T) {
	v, f, err := Resolve("", "")
	if err != nil || v.Name != "marioh" || f.Name() != "marioh" {
		t.Fatalf("Resolve defaults = %v, %v, %v", v, f, err)
	}
	v, f, err = Resolve("marioh-m", "")
	if err != nil || v.Name != "marioh-m" || f.Name() != "shyre-count" {
		t.Fatalf("Resolve(marioh-m) = %v, %v, %v", v, f, err)
	}
	v, f, err = Resolve("marioh-b", "shyre-motif")
	if err != nil || !v.DisableBidirectional || f.Name() != "shyre-motif" {
		t.Fatalf("Resolve override = %v, %v, %v", v, f, err)
	}
	if _, _, err := Resolve("nope", ""); err == nil {
		t.Fatal("unknown variant must not resolve")
	}
	if _, _, err := Resolve("", "nope"); err == nil {
		t.Fatal("unknown featurizer must not resolve")
	}
}
