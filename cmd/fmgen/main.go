// Command fmgen emits the synthetic census datasets this repository uses in
// place of the licensed IPUMS extracts (see internal/census for the
// substitution), as CSV with a header row.
//
// Usage:
//
//	fmgen -profile=us -n=10000 > us.csv
//	fmgen -profile=brazil -full -o brazil.csv
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"funcmech/internal/census"
	"funcmech/internal/dataset"
)

func main() {
	var (
		profile = flag.String("profile", "us", "census profile: us or brazil")
		n       = flag.Int("n", 10000, "number of records")
		full    = flag.Bool("full", false, "generate the full paper cardinality (370k US / 190k Brazil); overrides -n")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()

	var p census.Profile
	switch strings.ToLower(*profile) {
	case "us":
		p = census.US()
	case "brazil":
		p = census.Brazil()
	default:
		fmt.Fprintf(os.Stderr, "fmgen: unknown profile %q (want us or brazil)\n", *profile)
		os.Exit(2)
	}

	count := *n
	if *full {
		count = p.Records
	}
	ds := census.GenerateN(p, count, *seed)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fmgen: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	if err := dataset.WriteCSV(bw, ds); err != nil {
		fmt.Fprintf(os.Stderr, "fmgen: %v\n", err)
		os.Exit(1)
	}
	if err := bw.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "fmgen: %v\n", err)
		os.Exit(1)
	}
}
