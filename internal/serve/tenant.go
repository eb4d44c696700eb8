package serve

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"funcmech"
	"funcmech/internal/noise"
	"funcmech/internal/wal"
)

// Tenant is one customer of the service: a name, the *funcmech.Session
// holding its lifetime privacy budget, and fit counters. The session is the
// entire enforcement mechanism — every fit debits it atomically before
// touching data, so a tenant's cumulative ε-spend can never exceed its
// configured budget no matter how many requests race.
type Tenant struct {
	Name    string
	Session *funcmech.Session

	fits      atomic.Int64 // successful fits served
	exhausted atomic.Int64 // fits refused for budget exhaustion
}

// Fits returns the number of successful fits served for the tenant.
func (t *Tenant) Fits() int64 { return t.fits.Load() }

// Exhausted returns the number of fits refused with ErrBudgetExhausted.
func (t *Tenant) Exhausted() int64 { return t.exhausted.Load() }

// Tenants is the tenant directory. Creation is the only write; fits read
// through an RLock and then operate on the tenant's own session, which has
// its own synchronization.
type Tenants struct {
	mu   sync.RWMutex
	all  map[string]*Tenant
	wlog *wal.Log // set by Server.UseWAL: registrations are journaled first
}

// NewTenants returns an empty directory.
func NewTenants() *Tenants {
	return &Tenants{all: make(map[string]*Tenant)}
}

// Create registers a new tenant with the given lifetime ε; a name already
// registered is an error, whatever its budget (POST /v1/tenants answers it
// with 409). See Declare for the rules both share.
func (ts *Tenants) Create(name string, budget float64) (*Tenant, error) {
	t, created, err := ts.Declare(name, budget)
	if err == nil && !created {
		return nil, fmt.Errorf("serve: tenant %q already exists", name)
	}
	return t, err
}

// Declare is the one lifetime-total rule, for tenants.json restore, journal
// replay and the -tenant flag alike: an absent tenant is created (created =
// true), one with the same total is returned unchanged, spend and all, and
// any other total is an error — changing a lifetime budget would reset its
// accounting. The total must be finite and positive. With a WAL attached,
// the registration is journaled durably first, under the directory lock:
// replay of a tenant's charges needs the tenant.
func (ts *Tenants) Declare(name string, total float64) (t *Tenant, created bool, err error) {
	if name == "" {
		return nil, false, fmt.Errorf("serve: empty tenant name")
	}
	if err := noise.CheckEpsilon(total); err != nil {
		return nil, false, fmt.Errorf("serve: tenant %q: budget: %w", name, err)
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if old, ok := ts.all[name]; ok {
		if old.Session.Total() != total {
			return nil, false, fmt.Errorf("serve: tenant %q budget %v conflicts with its lifetime budget %v",
				name, total, old.Session.Total())
		}
		return old, false, nil
	}
	if ts.wlog != nil {
		if _, err := ts.wlog.Append(wal.Event{Kind: wal.EventTenant, Tenant: name, Total: total}); err != nil {
			return nil, false, fmt.Errorf("%w tenant %q: %v", errWALAppend, name, err)
		}
	}
	t = &Tenant{Name: name, Session: funcmech.NewSession(total)}
	ts.all[name] = t
	return t, true, nil
}

// Lookup returns the tenant registered under name, or false.
func (ts *Tenants) Lookup(name string) (*Tenant, bool) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	t, ok := ts.all[name]
	return t, ok
}

// All returns the tenants sorted by name.
func (ts *Tenants) All() []*Tenant {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([]*Tenant, 0, len(ts.all))
	for _, t := range ts.all {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
