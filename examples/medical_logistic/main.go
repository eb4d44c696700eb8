// Medical logistic regression: the paper's §1 motivating example — predict
// whether a patient has diabetes from age and cholesterol level (Figure 1b)
// — under ε-differential privacy, so individual patient records stay
// protected while the screening model is released.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"funcmech"
)

func main() {
	schema := funcmech.Schema{
		Features: []funcmech.Attribute{
			{Name: "age", Min: 18, Max: 90},
			{Name: "cholesterol", Min: 100, Max: 320}, // mg/dL
		},
		Target: funcmech.Attribute{Name: "diabetes", Min: 0, Max: 1},
	}

	// Simulated cohort: diabetes risk rises with age and cholesterol.
	rng := rand.New(rand.NewSource(3))
	cohort := funcmech.NewDataset(schema)
	holdout := funcmech.NewDataset(schema)
	for i := 0; i < 25_000; i++ {
		age := 18 + rng.Float64()*72
		chol := 100 + rng.Float64()*220
		risk := 1 / (1 + math.Exp(-(-7.0 + 0.05*age + 0.02*chol)))
		y := 0.0
		if rng.Float64() < risk {
			y = 1
		}
		if i%5 == 0 {
			holdout.Append([]float64{age, chol}, y)
		} else {
			cohort.Append([]float64{age, chol}, y)
		}
	}
	fmt.Printf("cohort: %d patients (%d held out)\n", cohort.Len(), holdout.Len())

	// The baseline risk is far from 50% at the feature-space origin, so the
	// model needs a bias term (paper footnote 2's general form).
	exact, err := funcmech.LogisticRegressionExact(cohort, funcmech.WithIntercept())
	if err != nil {
		log.Fatal(err)
	}
	exactRate, err := exact.MisclassificationRate(holdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s  misclassification %.3f\n", "NoPrivacy", exactRate)

	for _, eps := range []float64{0.4, 0.8, 3.2} {
		model, report, err := funcmech.LogisticRegression(cohort, eps,
			funcmech.WithSeed(9), funcmech.WithIntercept())
		if err != nil {
			log.Fatal(err)
		}
		rate, err := model.MisclassificationRate(holdout)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("FM ε=%-6.1f  misclassification %.3f   (Δ=%.1f = d²/4+3d)\n",
			eps, rate, report.Delta)
	}

	model, _, err := funcmech.LogisticRegression(cohort, 0.8,
		funcmech.WithSeed(9), funcmech.WithIntercept())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nscreening with the ε=0.8 model:")
	for _, patient := range [][]float64{{35, 150}, {55, 220}, {75, 290}} {
		fmt.Printf("  age %2.0f, cholesterol %3.0f → P(diabetes) = %.2f\n",
			patient[0], patient[1], model.Predict(patient))
	}
}
