// Package census generates the synthetic stand-in for the IPUMS microdata
// the paper evaluates on (§7: 370,000 US and 190,000 Brazil records with 13
// raw attributes, 14 after binarizing Marital Status).
//
// The real extracts are licensed and not redistributable, so this package is
// the substitution, documented here: a deterministic generator that
// reproduces what the evaluation actually depends on — the attribute list
// and domains, the dataset cardinalities, and a learnable, noisy,
// heavy-tailed relationship between the demographic attributes and Annual
// Income. Income follows a log-linear model (education, a concave age
// profile, working hours, and categorical shifts) with Gaussian disturbance,
// which mirrors the Mincer-equation structure census income is conventionally
// modelled with; every downstream code path (normalization, regression,
// noisy histograms) is exercised identically to the real data.
package census

import (
	"fmt"
	"strings"
)

// IncomeModel holds the coefficients of the log-linear income equation
//
//	log(1+income) = Base + Edu·edu + AgeLin·a + AgeQuad·a² + Hours·hours
//	              + Gender·gender + Married·married + Disability·dis
//	              + Nativity·foreign + N(0, NoiseStd)
//
// with a = age−16. AgeQuad < 0 yields the usual concave experience profile.
type IncomeModel struct {
	Base       float64
	Edu        float64
	AgeLin     float64
	AgeQuad    float64
	Hours      float64
	Gender     float64
	Married    float64
	Disability float64
	Nativity   float64
	NoiseStd   float64
}

// Profile parameterizes one country's synthetic population.
type Profile struct {
	// Name labels the dataset ("US", "Brazil").
	Name string
	// Records is the full cardinality, matching the paper's extracts.
	Records int
	// IncomeMax is the public upper domain bound for Annual Income.
	IncomeMax float64
	// IncomeThreshold converts income to the boolean target for logistic
	// regression (paper §7 "values higher than a predefined threshold").
	// Chosen near the population median so classes are roughly balanced.
	IncomeThreshold float64

	// EduMean/EduStd parameterize years of education.
	EduMean, EduStd float64
	// ForeignBornRate is P(Nativity = foreign-born).
	ForeignBornRate float64
	// HoursMean/HoursStd parameterize weekly working hours for the active
	// population.
	HoursMean, HoursStd float64
	// Income is the log-linear income equation.
	Income IncomeModel
}

// US returns the profile standing in for the paper's 370,000-record US
// extract.
func US() Profile {
	return Profile{
		Name:            "US",
		Records:         370000,
		IncomeMax:       300000,
		IncomeThreshold: 35000,
		EduMean:         12.5,
		EduStd:          3.0,
		ForeignBornRate: 0.13,
		HoursMean:       40,
		HoursStd:        11,
		Income: IncomeModel{
			Base:       7.55,
			Edu:        0.095,
			AgeLin:     0.052,
			AgeQuad:    -0.00058,
			Hours:      0.013,
			Gender:     0.24,
			Married:    0.11,
			Disability: -0.35,
			Nativity:   -0.08,
			NoiseStd:   0.55,
		},
	}
}

// Brazil returns the profile standing in for the paper's 190,000-record
// Brazil extract: lower income level, fewer years of education, and higher
// dispersion (Brazilian census income is markedly more unequal, which is why
// the paper's Brazil MSE curves sit higher than the US ones).
func Brazil() Profile {
	return Profile{
		Name:            "Brazil",
		Records:         190000,
		IncomeMax:       150000,
		IncomeThreshold: 9000,
		EduMean:         8.0,
		EduStd:          4.0,
		ForeignBornRate: 0.05,
		HoursMean:       42,
		HoursStd:        13,
		Income: IncomeModel{
			Base:       6.45,
			Edu:        0.125,
			AgeLin:     0.046,
			AgeQuad:    -0.00050,
			Hours:      0.011,
			Gender:     0.28,
			Married:    0.09,
			Disability: -0.30,
			Nativity:   -0.05,
			NoiseStd:   0.80,
		},
	}
}

// Profiles returns both evaluation profiles in paper order.
func Profiles() []Profile { return []Profile{US(), Brazil()} }

// ProfileByName resolves a profile by its name, ignoring case: "us" or
// "brazil".
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if strings.EqualFold(p.Name, name) {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("unknown census profile %q (want us or brazil)", name)
}
