package lint

import (
	"go/ast"
	"go/types"

	"funcmech/internal/lint/analysis"
)

// ChargeBeforeNoise guards the ε-accounting discipline at the serving layer
// (PR 5): a noise draw released to a client must be preceded, in the same
// release function, by a budget charge that has already been journaled to the
// fsynced WAL. Statically that becomes three rules over the call graph:
//
//  1. No function in a serve package may reach a noise draw
//     (noise.Laplace.Sample / SampleVec) through any call path, unless the
//     function carries the //fmlint:releases-noise annotation.
//  2. Annotated functions are audited choke points: inside one, the first
//     call that reaches a noise draw must be lexically preceded by a call
//     reaching Session.Charge AND a call reaching wal.Log.Append — in
//     practice both via serve's chargeDurable helper.
//  3. Reaching noise *through* an annotated function is sanctioned, so HTTP
//     routing that dispatches to an audited handler stays clean.
//
// The analysis resolves direct calls only; noise released through a function
// value or interface would be invisible to it, and keeping the release paths
// direct is part of the discipline this check documents.
var ChargeBeforeNoise = &analysis.Analyzer{
	Name: "chargebeforenoise",
	Doc:  "serve code reaches noise draws only inside //fmlint:releases-noise functions that durably charge the budget first",
	Run:  runChargeBeforeNoise,
}

// The seed sets. Package names are suffix-matched so the same specs bind to
// funcmech/internal/noise in the real tree and cbn/noise in fixtures.
var (
	noiseSeeds = []funcSpec{
		{pkg: "noise", recv: "Laplace", name: "Sample"},
		{pkg: "noise", recv: "Laplace", name: "SampleVec"},
	}
	chargeSeeds = []funcSpec{
		{pkg: "*", recv: "Session", name: "Charge"},
	}
	walSeeds = []funcSpec{
		{pkg: "wal", recv: "Log", name: "Append"},
	}
)

type cbnSets struct {
	graph *callGraph
	// noise holds every function from which a noise draw is reachable
	// without passing through an annotated release site; charge and wal
	// hold the functions reaching a budget charge / a WAL append.
	noise  map[string]bool
	charge map[string]bool
	wal    map[string]bool
}

func cbnSetsOf(prog *analysis.Program) *cbnSets {
	return prog.Cached("lint.chargebeforenoise", func() any {
		g := programCallGraph(prog)
		return &cbnSets{
			graph:  g,
			noise:  g.reachers(seedKeys(prog, noiseSeeds), true),
			charge: g.reachers(seedKeys(prog, chargeSeeds), false),
			wal:    g.reachers(seedKeys(prog, walSeeds), false),
		}
	}).(*cbnSets)
}

func runChargeBeforeNoise(pass *analysis.Pass) error {
	if !pkgMatches(pass.Pkg.Path, "serve") {
		return nil
	}
	sets := cbnSetsOf(pass.Prog)
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			key := funcKey(fn)
			if sets.graph.annotated[key] {
				checkReleaseSite(pass, sets, key)
				continue
			}
			for _, site := range sets.graph.sites[key] {
				if site.callee != "" && sets.noise[site.callee] {
					pass.Reportf(site.pos,
						"call to %s reaches a noise draw; only //fmlint:releases-noise-annotated functions may release noise",
						site.callee)
				}
			}
		}
	}
	return nil
}

// checkReleaseSite audits one annotated release function. Flags only become
// true, so checking the first noise-reaching call covers all of them.
func checkReleaseSite(pass *analysis.Pass, sets *cbnSets, key string) {
	charged, journaled := false, false
	for _, site := range sets.graph.sites[key] {
		if site.callee == "" {
			continue
		}
		if sets.charge[site.callee] {
			charged = true
		}
		if sets.wal[site.callee] {
			journaled = true
		}
		if sets.noise[site.callee] {
			switch {
			case !charged:
				pass.Reportf(site.pos, "noise draw reached before a durable budget charge: call the charge-then-journal helper first")
			case !journaled:
				pass.Reportf(site.pos, "noise draw reached before the charge is journaled: append the ε-spend to the WAL before releasing noise")
			}
			return
		}
	}
}
