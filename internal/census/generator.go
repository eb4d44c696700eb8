package census

import (
	"fmt"
	"math"
	"math/rand"

	"funcmech/internal/dataset"
)

// Attribute names, in schema order. The marital-status category is emitted
// pre-binarized as IsSingle/IsMarried (divorced/widowed ⇒ both zero),
// exactly the transformation paper §7 applies, for 13 features + the income
// target = 14 attributes total.
const (
	AttrAge         = "Age"
	AttrGender      = "Gender"
	AttrEducation   = "Education"
	AttrFamilySize  = "FamilySize"
	AttrNativity    = "Nativity"
	AttrDwelling    = "DwellingOwnership"
	AttrAutomobiles = "NumAutomobiles"
	AttrIsSingle    = "IsSingle"
	AttrIsMarried   = "IsMarried"
	AttrChildren    = "NumChildren"
	AttrDisability  = "Disability"
	AttrHours       = "WorkingHours"
	AttrResidence   = "YearsResiding"
	AttrIncome      = "AnnualIncome"
)

// featureOrder fixes the column layout of generated datasets.
var featureOrder = []string{
	AttrAge, AttrGender, AttrEducation, AttrFamilySize,
	AttrNativity, AttrDwelling, AttrAutomobiles,
	AttrIsSingle, AttrIsMarried, AttrChildren,
	AttrDisability, AttrHours, AttrResidence,
}

// Schema returns the 13-feature schema with the profile's income domain.
func (p Profile) Schema() *dataset.Schema {
	bounds := map[string][2]float64{
		AttrAge:         {16, 95},
		AttrGender:      {0, 1},
		AttrEducation:   {0, 17},
		AttrFamilySize:  {1, 12},
		AttrNativity:    {0, 1},
		AttrDwelling:    {0, 1},
		AttrAutomobiles: {0, 6},
		AttrIsSingle:    {0, 1},
		AttrIsMarried:   {0, 1},
		AttrChildren:    {0, 8},
		AttrDisability:  {0, 1},
		AttrHours:       {0, 99},
		AttrResidence:   {0, 60},
	}
	s := &dataset.Schema{Target: dataset.Attribute{Name: AttrIncome, Min: 0, Max: p.IncomeMax}}
	for _, name := range featureOrder {
		b := bounds[name]
		s.Features = append(s.Features, dataset.Attribute{Name: name, Min: b[0], Max: b[1]})
	}
	return s
}

// DimensionSubsets returns the attribute subsets of the paper's
// dimensionality sweep (§7): the reported dimensionality counts the income
// target, so the d-attribute experiment uses d−1 features.
//
//	 5 → Age, Gender, Education, FamilySize (+ income)
//	 8 → + Nativity, DwellingOwnership, NumAutomobiles
//	11 → + IsSingle, IsMarried, NumChildren
//	14 → + Disability, WorkingHours, YearsResiding (all attributes)
func DimensionSubsets() map[int][]string {
	five := []string{AttrAge, AttrGender, AttrEducation, AttrFamilySize}
	eight := append(append([]string{}, five...), AttrNativity, AttrDwelling, AttrAutomobiles)
	eleven := append(append([]string{}, eight...), AttrIsSingle, AttrIsMarried, AttrChildren)
	fourteen := append(append([]string{}, eleven...), AttrDisability, AttrHours, AttrResidence)
	return map[int][]string{5: five, 8: eight, 11: eleven, 14: fourteen}
}

// Dimensionalities returns the sweep values in ascending order.
func Dimensionalities() []int { return []int{5, 8, 11, 14} }

// GenerateN produces n records (tests and quick experiments run scaled-down
// extracts; benchmarks can ask for the full cardinality).
func GenerateN(p Profile, n int, seed int64) *dataset.Dataset {
	if n <= 0 {
		panic(fmt.Sprintf("census: GenerateN with n=%d", n))
	}
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.NewWithCapacity(p.Schema(), n)
	for i := 0; i < n; i++ {
		ds.Append(p.record(rng))
	}
	return ds
}

// record draws one synthetic person. Attribute dependencies flow
// age → education/marital/disability → hours → income → ownership/autos,
// giving the cross-correlations a regression can exploit.
func (p Profile) record(rng *rand.Rand) ([]float64, float64) {
	// Age skews young: a Beta(1.4, 2.2)-shaped draw over [16, 95].
	age := 16 + 79*betaish(rng, 1.4, 2.2)

	gender := float64(rng.Intn(2))

	edu := clamp(p.EduMean+p.EduStd*rng.NormFloat64()+0.3*(age-40)/40, 0, 17)

	// Marital status: P(married) rises with age; singles dominate the young.
	pMarried := 0.78 * sigmoid((age-28)/6)
	var isSingle, isMarried float64
	switch u := rng.Float64(); {
	case u < pMarried:
		isMarried = 1
	case u < pMarried+(1-pMarried)*math.Exp(-(age-16)/22):
		isSingle = 1
	default:
		// divorced or widowed: both indicators zero.
	}

	disability := bernoulli(rng, 0.02+0.10*(age-16)/79)

	nativity := bernoulli(rng, p.ForeignBornRate)

	// Hours: most of the working-age population near HoursMean; retirement
	// and disability push toward zero.
	hours := clamp(p.HoursMean+p.HoursStd*rng.NormFloat64(), 0, 99)
	if age > 65 && rng.Float64() < 0.75 {
		hours = clamp(8*rng.Float64(), 0, 99)
	}
	if disability == 1 && rng.Float64() < 0.5 {
		hours = clamp(hours*0.3, 0, 99)
	}

	residence := rng.Float64() * math.Min(age-15, 60)

	familySize := 1.0
	if isMarried == 1 {
		familySize = 2 + float64(poisson(rng, 1.4))
	} else {
		familySize = 1 + float64(poisson(rng, 0.4))
	}
	familySize = clamp(familySize, 1, 12)

	childLambda := 0.3
	if isMarried == 1 {
		childLambda = 1.3
	}
	children := math.Min(float64(poisson(rng, childLambda)), familySize-1)
	children = clamp(children, 0, 8)

	income := p.income(rng, age, gender, edu, isMarried, disability, nativity, hours)

	ownership := bernoulli(rng, sigmoid(-2.6+0.045*(age-16)+1.8e-5*income))

	autos := clamp(math.Floor(0.5+income/45000+0.6*rng.NormFloat64()), 0, 6)

	row := make([]float64, len(featureOrder))
	for j, name := range featureOrder {
		switch name {
		case AttrAge:
			row[j] = math.Floor(age)
		case AttrGender:
			row[j] = gender
		case AttrEducation:
			row[j] = math.Floor(edu)
		case AttrFamilySize:
			row[j] = familySize
		case AttrNativity:
			row[j] = nativity
		case AttrDwelling:
			row[j] = ownership
		case AttrAutomobiles:
			row[j] = autos
		case AttrIsSingle:
			row[j] = isSingle
		case AttrIsMarried:
			row[j] = isMarried
		case AttrChildren:
			row[j] = children
		case AttrDisability:
			row[j] = disability
		case AttrHours:
			row[j] = math.Floor(hours)
		case AttrResidence:
			row[j] = math.Floor(residence)
		}
	}
	return row, income
}

func (p Profile) income(rng *rand.Rand, age, gender, edu, married, disability, nativity, hours float64) float64 {
	a := age - 16
	m := p.Income
	logIncome := m.Base +
		m.Edu*edu +
		m.AgeLin*a +
		m.AgeQuad*a*a +
		m.Hours*hours +
		m.Gender*gender +
		m.Married*married +
		m.Disability*disability +
		m.Nativity*nativity +
		m.NoiseStd*rng.NormFloat64()
	return clamp(math.Expm1(logIncome), 0, p.IncomeMax)
}

// betaish draws an approximately Beta(a, b) variate via the ratio of gamma
// approximations — adequate for shaping an age pyramid.
func betaish(rng *rand.Rand, a, b float64) float64 {
	x := gammaish(rng, a)
	y := gammaish(rng, b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// gammaish draws a Gamma(shape, 1)-like variate by summing exponentials for
// the integer part and using a Weibull-style fractional correction.
func gammaish(rng *rand.Rand, shape float64) float64 {
	var g float64
	for i := 0; i < int(shape); i++ {
		g += -math.Log(1 - rng.Float64())
	}
	if frac := shape - math.Floor(shape); frac > 1e-9 {
		g += -math.Log(1-rng.Float64()) * frac
	}
	return g
}

// poisson draws a Poisson(λ) variate (Knuth's product method; λ is small
// everywhere in this package).
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 { // unreachable for the λ used here; guards a spin
			return k
		}
	}
}

func bernoulli(rng *rand.Rand, p float64) float64 {
	if rng.Float64() < p {
		return 1
	}
	return 0
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
