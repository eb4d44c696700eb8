package serve

import (
	"fmt"
	"sort"
	"sync"

	"funcmech"
	"funcmech/internal/census"
)

// Registry holds the datasets the service can fit against, keyed by name.
// Registration happens once (at startup or via POST /v1/datasets); after
// that the *funcmech.Dataset is shared read-only across every request, so
// lookups take only a brief RLock and fits touch no registry state at all.
type Registry struct {
	mu   sync.RWMutex
	sets map[string]*funcmech.Dataset
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{sets: make(map[string]*funcmech.Dataset)}
}

// Register adds ds under name. Names are immutable once taken: re-registering
// is an error, because fits in flight hold references to the original.
func (r *Registry) Register(name string, ds *funcmech.Dataset) error {
	if name == "" {
		return fmt.Errorf("serve: empty dataset name")
	}
	if ds == nil || ds.Len() == 0 {
		return fmt.Errorf("serve: dataset %q is empty", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.sets[name]; ok {
		return fmt.Errorf("serve: dataset %q already registered", name)
	}
	r.sets[name] = ds
	return nil
}

// Lookup returns the dataset registered under name, or false.
func (r *Registry) Lookup(name string) (*funcmech.Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	ds, ok := r.sets[name]
	return ds, ok
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.sets))
	for name := range r.sets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// GenerateCensus builds a synthetic census dataset (the repository's stand-in
// for the paper's IPUMS extracts) as a public *funcmech.Dataset. profile is
// "us" or "brazil" in any case; n ≤ 0 means the profile's full cardinality.
func GenerateCensus(profile string, n int, seed int64) (*funcmech.Dataset, error) {
	p, err := census.ProfileByName(profile)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if n <= 0 || n > p.Records {
		n = p.Records
	}
	inner := census.GenerateN(p, n, seed)
	ds := funcmech.NewDataset(*inner.Schema)
	ds.AppendBatch(inner.FlatRows(0, inner.N()), inner.Labels())
	return ds, nil
}
