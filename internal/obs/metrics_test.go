package obs

import (
	"bytes"
	"strings"
	"testing"
)

func render(t *testing.T, in Instrument) string {
	t.Helper()
	var buf bytes.Buffer
	if err := in.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

func TestCounterZeroValueUsable(t *testing.T) {
	var c Counter
	c.Add(2)
	c.Add(3)
	if c.Load() != 5 {
		t.Fatalf("Load = %d, want 5", c.Load())
	}
}

func TestGaugeRendersAndIsNilSafe(t *testing.T) {
	var nilG *Gauge
	nilG.Set(5)
	nilG.Add(1)
	if nilG.Load() != 0 {
		t.Fatal("nil gauge must load 0")
	}
	g := NewGauge("nocbt_test_depth", "Test depth.")
	g.Set(3)
	g.Add(-1)
	want := "# HELP nocbt_test_depth Test depth.\n# TYPE nocbt_test_depth gauge\nnocbt_test_depth 2\n"
	if got := render(t, g); got != want {
		t.Fatalf("gauge render:\n got %q\nwant %q", got, want)
	}
}

func TestGaugeFuncEvaluatesAtScrape(t *testing.T) {
	v := 1.5
	g := NewGaugeFunc("nocbt_test_fn", "Fn gauge.", func() float64 { return v })
	if got := render(t, g); !strings.Contains(got, "nocbt_test_fn 1.5\n") {
		t.Fatalf("render %q missing value", got)
	}
	v = 2
	if got := render(t, g); !strings.Contains(got, "nocbt_test_fn 2\n") {
		t.Fatalf("render %q did not re-evaluate", got)
	}
}

func TestCounterFuncReadsAtScrape(t *testing.T) {
	var c Counter
	f := NewCounterFunc("nocbt_test_total", "Fn counter.", c.Load)
	c.Add(3)
	want := "# HELP nocbt_test_total Fn counter.\n# TYPE nocbt_test_total counter\nnocbt_test_total 3\n"
	if got := render(t, f); got != want {
		t.Fatalf("render = %q, want %q", got, want)
	}
	c.Add(2)
	if got := render(t, f); !strings.Contains(got, "nocbt_test_total 5\n") {
		t.Fatalf("render %q did not re-read", got)
	}
}

func TestHistogramBucketsCumulateAndSum(t *testing.T) {
	var nilH *Histogram
	nilH.Observe(1) // must not panic
	if nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Fatal("nil histogram must be empty")
	}

	h := NewHistogram("nocbt_test_latency_seconds", "Test latency.", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.3, 0.7, 2.5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.3+0.7+2.5; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
	got := render(t, h)
	want := strings.Join([]string{
		"# HELP nocbt_test_latency_seconds Test latency.",
		"# TYPE nocbt_test_latency_seconds histogram",
		`nocbt_test_latency_seconds_bucket{le="0.1"} 2`,
		`nocbt_test_latency_seconds_bucket{le="0.5"} 3`,
		`nocbt_test_latency_seconds_bucket{le="1"} 4`,
		`nocbt_test_latency_seconds_bucket{le="+Inf"} 5`,
		"nocbt_test_latency_seconds_sum 3.65",
		"nocbt_test_latency_seconds_count 5",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("histogram render:\n got %q\nwant %q", got, want)
	}
}

func TestLatencyAndSizeBucketsIncrease(t *testing.T) {
	for _, bs := range [][]float64{LatencyBuckets(), SizeBuckets()} {
		for i := 1; i < len(bs); i++ {
			if bs[i] <= bs[i-1] {
				t.Fatalf("bounds not strictly increasing: %v", bs)
			}
		}
	}
}

func TestLabeledCounterSortedRender(t *testing.T) {
	var nilC *LabeledCounter
	nilC.Add("500", 1)
	if nilC.Load("500") != 0 {
		t.Fatal("nil labeled counter must load 0")
	}

	c := NewLabeledCounter("nocbt_test_responses_total", "Test responses.", "status")
	c.Add("500", 1)
	c.Add("200", 3)
	c.Add("404", 2)
	c.Add("200", 1)
	if c.Load("200") != 4 || c.Load("404") != 2 || c.Load("999") != 0 {
		t.Fatal("labeled counter loads wrong")
	}
	got := render(t, c)
	want := strings.Join([]string{
		"# HELP nocbt_test_responses_total Test responses.",
		"# TYPE nocbt_test_responses_total counter",
		`nocbt_test_responses_total{status="200"} 4`,
		`nocbt_test_responses_total{status="404"} 2`,
		`nocbt_test_responses_total{status="500"} 1`,
		"",
	}, "\n")
	if got != want {
		t.Fatalf("labeled render:\n got %q\nwant %q", got, want)
	}
}

func TestRegistryRendersInRegistrationOrder(t *testing.T) {
	var nilR *Registry
	nilR.Register(NewGauge("x", "x"))
	var buf bytes.Buffer
	if err := nilR.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry must render nothing")
	}

	r := NewRegistry()
	g1 := NewGauge("nocbt_test_b", "B.")
	g2 := NewGauge("nocbt_test_a", "A.")
	r.Register(g1, nil, g2)
	got := render(t, r)
	bIdx := strings.Index(got, "nocbt_test_b")
	aIdx := strings.Index(got, "nocbt_test_a")
	if bIdx < 0 || aIdx < 0 || bIdx > aIdx {
		t.Fatalf("registry must render in registration order, got:\n%s", got)
	}
}
