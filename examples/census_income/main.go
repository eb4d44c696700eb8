// Census income: the paper's §7 linear-regression workload — predict Annual
// Income from 13 demographic attributes of (simulated) US census microdata —
// run through the public API at three privacy budgets, with the non-private
// baseline for reference.
package main

import (
	"fmt"
	"log"

	"funcmech"
	"funcmech/internal/census"
)

func main() {
	profile := census.US()
	raw := census.GenerateN(profile, 50_000, 1)

	// Re-pack the internal dataset through the public API, as a user with
	// their own records would. The census schema is a funcmech.Schema: the
	// library has one schema type.
	schema := *raw.Schema
	train := funcmech.NewDataset(schema)
	test := funcmech.NewDataset(schema)
	for i := 0; i < raw.N(); i++ {
		if i%5 == 0 {
			test.Append(raw.Row(i), raw.Label(i))
		} else {
			train.Append(raw.Row(i), raw.Label(i))
		}
	}
	fmt.Printf("simulated US census: %d train / %d test records, %d features\n",
		train.Len(), test.Len(), train.NumFeatures())

	exact, err := funcmech.LinearRegressionExact(train, funcmech.WithIntercept())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s  test MSE (normalized) %.4f\n", "NoPrivacy", exact.NormalizedMSE(test))

	for _, eps := range []float64{0.4, 0.8, 3.2} {
		model, report, err := funcmech.LinearRegression(train, eps,
			funcmech.WithSeed(42), funcmech.WithIntercept())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("FM ε=%-6.1f  test MSE (normalized) %.4f   (Δ=%.0f, λ=%.0f, trimmed %d)\n",
			eps, model.NormalizedMSE(test), report.Delta, report.Lambda, report.Trimmed)
	}

	model, _, err := funcmech.LinearRegression(train, 0.8,
		funcmech.WithSeed(42), funcmech.WithIntercept())
	if err != nil {
		log.Fatal(err)
	}
	person := []float64{41, 1, 16, 3, 0, 1, 2, 0, 1, 1, 0, 45, 10}
	fmt.Printf("\nprediction for a 41-year-old with 16 years of education working 45h/week: $%.0f\n",
		model.Predict(person))
}
