package stats

import "math"

// Rand is a small, fast, deterministic PRNG (splitmix64 core) used by
// the traffic model. Unlike math/rand it can be seeded hierarchically
// and cheaply: the model derives one Rand per (subscriber, day) so any
// slice of the five-year dataset can be generated independently, in
// parallel, and reproducibly.
type Rand struct {
	state uint64
}

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Mix64 hashes several values into a new seed; the model uses it to
// derive child generators (seed, subscriber, day) → stream.
func Mix64(vs ...uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, v := range vs {
		h ^= v + 0x9E3779B97F4A7C15 + h<<6 + h>>2
		h = splitmix(h)
	}
	return h
}

// splitmix is the splitmix64 output function.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	z := x
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics when n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a sample from N(mu, sigma) via Box-Muller.
func (r *Rand) Normal(mu, sigma float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mu + sigma*z
}

// LogNormal returns a sample whose logarithm is N(mu, sigma). The
// daily traffic of a subscriber is modelled as a mixture of two
// lognormals (light and heavy days), reproducing the bimodal CCDF of
// Figure 2.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Exp returns an exponential sample with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Poisson returns a Poisson sample with the given mean (Knuth's
// method below 30, normal approximation above — flow counts per day
// reach the hundreds).
func (r *Rand) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(math.Round(r.Normal(mean, math.Sqrt(mean))))
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Logistic evaluates the logistic curve with midpoint x0 and steepness
// k at x, scaled to [0, max]. Service adoption over years follows
// logistic growth in the model.
func Logistic(x, x0, k, max float64) float64 {
	return max / (1 + math.Exp(-k*(x-x0)))
}
