package datagen

import (
	"math"
	"math/rand"

	"repro/internal/dataset"
)

// NYTaxiSize is the row count of the paper's NYC yellow-taxi extract.
// Generating the full table is supported but the experiments default to a
// smaller sample: all privacy-cost formulas depend on α through the ratio
// α/|D|, so the curve shapes are size invariant (pinned by
// TestDatasetScaleInvariance in internal/integration).
const NYTaxiSize = 9710124

// DefaultNYTaxiSize is the row count experiments use by default.
const DefaultNYTaxiSize = 100000

// Taxi categorical domains.
var (
	TaxiPaymentTypes = []string{"card", "cash", "no-charge", "dispute"}
	TaxiVendors      = []string{"CMT", "VTS"}
)

// NYTaxiSchema returns the public schema of the taxi table.
func NYTaxiSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Attribute{Name: "vendor", Kind: dataset.Categorical, Values: TaxiVendors},
		dataset.Attribute{Name: "pickup date", Kind: dataset.Continuous, Min: 1, Max: 31},
		dataset.Attribute{Name: "pickup hour", Kind: dataset.Continuous, Min: 0, Max: 23},
		dataset.Attribute{Name: "passenger count", Kind: dataset.Continuous, Min: 1, Max: 10},
		dataset.Attribute{Name: "trip distance", Kind: dataset.Continuous, Min: 0, Max: 100},
		dataset.Attribute{Name: "PUID", Kind: dataset.Continuous, Min: 1, Max: 265},
		dataset.Attribute{Name: "DOID", Kind: dataset.Continuous, Min: 1, Max: 265},
		dataset.Attribute{Name: "payment type", Kind: dataset.Categorical, Values: TaxiPaymentTypes},
		dataset.Attribute{Name: "fare amount", Kind: dataset.Continuous, Min: 0, Max: 500},
		dataset.Attribute{Name: "tip amount", Kind: dataset.Continuous, Min: 0, Max: 200},
		dataset.Attribute{Name: "tolls amount", Kind: dataset.Continuous, Min: 0, Max: 50},
		dataset.Attribute{Name: "total amount", Kind: dataset.Continuous, Min: 0, Max: 600},
	)
}

// NYTaxi generates n taxi trips with the yellow-cab distributional shape:
// exponential trip distances with a short-trip mode, fares metered off
// distance, Zipf-skewed pickup/dropoff zones, and mostly single passengers.
func NYTaxi(n int, seed int64) *dataset.Table {
	rng := rand.New(rand.NewSource(seed))
	s := NYTaxiSchema()
	t := dataset.NewTable(s)
	for i := 0; i < n; i++ {
		t.MustAppend(taxiRow(rng))
	}
	return t
}

func taxiRow(rng *rand.Rand) dataset.Tuple {
	dist := sampleTripDistance(rng)
	fare := meterFare(rng, dist)
	tip := 0.0
	payment := pickWeighted(rng, TaxiPaymentTypes, []float64{0.62, 0.36, 0.01, 0.01})
	if payment == "card" {
		tip = round2(fare * (0.1 + rng.Float64()*0.2))
	}
	tolls := 0.0
	if rng.Float64() < 0.05 {
		tolls = round2(2 + rng.Float64()*15)
	}
	total := round2(fare + tip + tolls + 0.5) // flat surcharge
	return dataset.Tuple{
		dataset.Str(pickWeighted(rng, TaxiVendors, []float64{0.47, 0.53})),
		dataset.Num(float64(1 + rng.Intn(31))),
		dataset.Num(sampleHour(rng)),
		dataset.Num(samplePassengers(rng)),
		dataset.Num(dist),
		dataset.Num(sampleZone(rng)),
		dataset.Num(sampleZone(rng)),
		dataset.Str(payment),
		dataset.Num(fare),
		dataset.Num(tip),
		dataset.Num(tolls),
		dataset.Num(total),
	}
}

// sampleTripDistance draws an exponential-ish distance (mean ~3 miles) with
// a spike of very short hops, giving QW3/QI3 their mass in the lowest bins.
func sampleTripDistance(rng *rand.Rand) float64 {
	if rng.Float64() < 0.12 {
		return round2(rng.Float64() * 1.0) // short hops < 1 mile
	}
	d := rng.ExpFloat64() * 2.8
	if d > 100 {
		d = 100
	}
	return round2(d)
}

// meterFare approximates the metered fare: flagfall plus per-mile rate with
// noise. Fares of short hops cluster under $10, matching the QI3/QI4
// threshold geometry.
func meterFare(rng *rand.Rand, dist float64) float64 {
	fare := 2.5 + dist*2.5 + rng.NormFloat64()*1.0
	if fare < 2.5 {
		fare = 2.5
	}
	if fare > 500 {
		fare = 500
	}
	return round2(fare)
}

func sampleHour(rng *rand.Rand) float64 {
	// Bimodal: morning and evening peaks.
	u := rng.Float64()
	switch {
	case u < 0.3:
		return clamp(math.Floor(8+rng.NormFloat64()*2), 0, 23)
	case u < 0.75:
		return clamp(math.Floor(18+rng.NormFloat64()*3), 0, 23)
	default:
		return float64(rng.Intn(24))
	}
}

func samplePassengers(rng *rand.Rand) float64 {
	u := rng.Float64()
	switch {
	case u < 0.71:
		return 1
	case u < 0.85:
		return 2
	case u < 0.91:
		return 3
	case u < 0.95:
		return 4
	case u < 0.98:
		return 5
	default:
		return float64(6 + rng.Intn(5))
	}
}

// sampleZone draws a taxi-zone id with Zipf skew (Manhattan zones dominate).
func sampleZone(rng *rand.Rand) float64 {
	// Inverse-CDF of a truncated Zipf over 1..265 approximated by a
	// power-law transform; clamps keep the value in the public domain.
	u := rng.Float64()
	z := math.Floor(1 + 264*math.Pow(u, 2.2))
	return clamp(z, 1, 265)
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }
