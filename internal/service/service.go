// Package service is the variant registry behind the public
// marioh.Reconstructor API: it maps the algorithm-variant names used by
// CLIs, config files and HTTP requests to the concrete switches of the
// paper's method and its ablations, so callers can select them without
// importing the implementation packages. Featurizer names resolve in
// internal/features, whose set is closed; Resolve maps a (variant,
// featurizer) name pair to both.
package service

import (
	"fmt"

	"marioh/internal/features"
)

// Variant names a MARIOH algorithm configuration: the full method or one
// of the paper's ablations (Tables II and III).
type Variant struct {
	// Name is the registry key ("marioh", "marioh-m", "marioh-f",
	// "marioh-b").
	Name string
	// Description is a one-line human-readable summary for CLI listings.
	Description string
	// Featurizer is the name of the clique featurizer the variant trains
	// with, resolved via features.ByName.
	Featurizer string
	// DisableFiltering skips the guaranteed size-2 filtering step.
	DisableFiltering bool
	// DisableBidirectional skips sub-clique exploration.
	DisableBidirectional bool
}

// variants is the built-in registry, in presentation order.
var variants = []Variant{
	{
		Name:        "marioh",
		Description: "full MARIOH: multiplicity-aware features, size-2 filtering, bidirectional search",
		Featurizer:  "marioh",
	},
	{
		Name:        "marioh-m",
		Description: "MARIOH-M ablation: multiplicity-unaware (SHyRe count) features",
		Featurizer:  "shyre-count",
	},
	{
		Name:             "marioh-f",
		Description:      "MARIOH-F ablation: no guaranteed size-2 filtering",
		Featurizer:       "marioh",
		DisableFiltering: true,
	},
	{
		Name:                 "marioh-b",
		Description:          "MARIOH-B ablation: no sub-clique (bidirectional) exploration",
		Featurizer:           "marioh",
		DisableBidirectional: true,
	},
}

// VariantNames lists the registered variants in presentation order.
func VariantNames() []string {
	out := make([]string, len(variants))
	for i, v := range variants {
		out[i] = v.Name
	}
	return out
}

// VariantByName resolves a variant by its registry key.
func VariantByName(name string) (Variant, bool) {
	for _, v := range variants {
		if v.Name == name {
			return v, true
		}
	}
	return Variant{}, false
}

// Resolve maps the (variant, featurizer) name pair of a request payload —
// a CLI invocation, a config file, or an HTTP body — to concrete
// descriptors. Empty strings select the defaults: variant "marioh", and
// the variant's own featurizer. The returned errors name the valid
// alternatives, so callers can surface them to users verbatim.
func Resolve(variant, featurizer string) (Variant, features.Featurizer, error) {
	if variant == "" {
		variant = "marioh"
	}
	v, ok := VariantByName(variant)
	if !ok {
		return Variant{}, nil, fmt.Errorf("service: unknown variant %q (have %v)", variant, VariantNames())
	}
	if featurizer == "" {
		featurizer = v.Featurizer
	}
	f, ok := features.ByName(featurizer)
	if !ok {
		return Variant{}, nil, fmt.Errorf("service: unknown featurizer %q (have %v)", featurizer, features.Names())
	}
	return v, f, nil
}
