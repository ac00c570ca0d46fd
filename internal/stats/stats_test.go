package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	var e ECDF
	if e.P(5) != 0 || e.CCDF(5) != 1 {
		t.Error("empty ECDF should be 0/1")
	}
	if e.Quantile(0.5) != 0 || e.Mean() != 0 {
		t.Error("empty ECDF quantile/mean should be 0, never NaN")
	}
	e.AddAll([]float64{1, 2, 3, 4})
	if e.N() != 4 {
		t.Errorf("N = %d", e.N())
	}
	if got := e.P(2); got != 0.5 {
		t.Errorf("P(2) = %v, want 0.5", got)
	}
	if got := e.P(2.5); got != 0.5 {
		t.Errorf("P(2.5) = %v, want 0.5", got)
	}
	if got := e.CCDF(3); got != 0.25 {
		t.Errorf("CCDF(3) = %v, want 0.25", got)
	}
	if got := e.P(0.5); got != 0 {
		t.Errorf("P(0.5) = %v, want 0", got)
	}
	if got := e.P(10); got != 1 {
		t.Errorf("P(10) = %v, want 1", got)
	}
	if got := e.Mean(); got != 2.5 {
		t.Errorf("Mean = %v", got)
	}
}

func TestECDFAddAfterQuery(t *testing.T) {
	var e ECDF
	e.Add(10)
	_ = e.P(10)
	e.Add(1) // must re-sort
	if got := e.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var e ECDF
	e.AddAll([]float64{10, 20, 30, 40, 50})
	cases := []struct{ q, want float64 }{
		{0, 10}, {0.2, 10}, {0.21, 20}, {0.5, 30}, {0.9, 50}, {1, 50},
	}
	for _, c := range cases {
		if got := e.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if e.Median() != 30 {
		t.Errorf("Median = %v", e.Median())
	}
}

// Property: P is monotone and within [0,1].
func TestECDFMonotoneProperty(t *testing.T) {
	f := func(vs []float64, a, b float64) bool {
		var e ECDF
		for _, v := range vs {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				e.Add(v)
			}
		}
		if a > b {
			a, b = b, a
		}
		pa, pb := e.P(a), e.P(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBezierEndpoints(t *testing.T) {
	in := []Point{{0, 1}, {1, 5}, {2, 2}, {3, 8}}
	out := Bezier(in, 50)
	if len(out) != 50 {
		t.Fatalf("len = %d", len(out))
	}
	if out[0] != in[0] {
		t.Errorf("first point %v, want %v", out[0], in[0])
	}
	last := out[len(out)-1]
	if math.Abs(last.X-3) > 1e-9 || math.Abs(last.Y-8) > 1e-9 {
		t.Errorf("last point %v, want {3 8}", last)
	}
	// Bézier of a convex-combination stays within the hull.
	for _, p := range out {
		if p.Y < 1-1e-9 || p.Y > 8+1e-9 {
			t.Errorf("point %v escapes the control hull", p)
		}
	}
}

func TestBezierDegenerate(t *testing.T) {
	if out := Bezier(nil, 10); out != nil {
		t.Error("nil input should give nil")
	}
	single := []Point{{1, 2}}
	out := Bezier(single, 10)
	if len(out) != 1 || out[0] != single[0] {
		t.Errorf("single point: %v", out)
	}
}

func TestBezierSmoothsLine(t *testing.T) {
	// A straight control polygon must stay a straight line.
	in := []Point{{0, 0}, {1, 1}, {2, 2}, {3, 3}}
	for _, p := range Bezier(in, 20) {
		if math.Abs(p.Y-p.X) > 1e-9 {
			t.Errorf("point %v off the line", p)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(7).Uint64() == NewRand(8).Uint64() {
		t.Error("different seeds collided on first draw")
	}
}

func TestMix64(t *testing.T) {
	if Mix64(1, 2) == Mix64(2, 1) {
		t.Error("Mix64 is order-insensitive")
	}
	if Mix64(5) != Mix64(5) {
		t.Error("Mix64 not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(99)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRand(1234)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("mean = %v, want ~10", mean)
	}
	if math.Abs(sd-2) > 0.05 {
		t.Errorf("sd = %v, want ~2", sd)
	}
}

func TestLogNormalMedian(t *testing.T) {
	r := NewRand(77)
	var e ECDF
	for i := 0; i < 50000; i++ {
		e.Add(r.LogNormal(math.Log(100), 1))
	}
	med := e.Median()
	if med < 90 || med > 110 {
		t.Errorf("lognormal median = %v, want ~100", med)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRand(5)
	for _, mean := range []float64{0.5, 5, 80} {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean)/mean > 0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRand(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Exp(42)
	}
	if got := sum / n; math.Abs(got-42) > 1.5 {
		t.Errorf("Exp mean = %v, want ~42", got)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestBool(t *testing.T) {
	r := NewRand(8)
	trues := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.25) {
			trues++
		}
	}
	if trues < 2200 || trues > 2800 {
		t.Errorf("Bool(0.25) rate = %v", float64(trues)/10000)
	}
}

func TestLogistic(t *testing.T) {
	if got := Logistic(0, 0, 1, 10); math.Abs(got-5) > 1e-9 {
		t.Errorf("Logistic midpoint = %v, want 5", got)
	}
	if got := Logistic(100, 0, 1, 10); math.Abs(got-10) > 1e-6 {
		t.Errorf("Logistic(+inf) = %v, want 10", got)
	}
	if got := Logistic(-100, 0, 1, 10); got > 1e-6 {
		t.Errorf("Logistic(-inf) = %v, want 0", got)
	}
	// Monotone.
	prev := -1.0
	for x := -5.0; x <= 5; x += 0.5 {
		v := Logistic(x, 0, 2, 1)
		if v <= prev {
			t.Errorf("Logistic not increasing at %v", x)
		}
		prev = v
	}
}

func BenchmarkECDFQuantile(b *testing.B) {
	var e ECDF
	r := NewRand(1)
	for i := 0; i < 100000; i++ {
		e.Add(r.LogNormal(5, 2))
	}
	_ = e.Median() // force the sort once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Quantile(0.9)
	}
}

func BenchmarkRandLogNormal(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.LogNormal(5, 2)
	}
}
