package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkMetrics reads the metric names BENCHMARK.json promises.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload on tiny inputs, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names with no failed
// operation and every end-to-end metric above 0.
func TestSmoke(t *testing.T) {
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, err := measure(config{workload: name, seed: 3, seconds: 1, trace: traced, dir: t.TempDir(), tiny: true})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := res.Metrics[m]
					if !ok {
						t.Errorf("traced=%v: metric %s missing", traced, m)
					} else if !traced && v.Value <= 0 {
						t.Errorf("metric %s = %v, want > 0", m, v.Value)
					}
				}
			}
		})
	}
}

// TestPerturbedExpectationFails shows the checks bite: with one expected
// value shifted, every workload reports failed operations.
func TestPerturbedExpectationFails(t *testing.T) {
	for _, name := range workloadNames {
		res, err := measure(config{workload: name, seed: 3, seconds: 1, dir: t.TempDir(), tiny: true, perturb: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: perturbed run reported correct=%v failed=%d", name, res.Correct, res.Failed)
		}
	}
}

func TestMergeFormula(t *testing.T) {
	r := func(pk, gen int64) rec { return mkRec(pk, gen) }
	base := []rec{r(1, 1), r(2, 1), r(3, 1)}
	ours := []rec{r(1, 2), r(2, 1), r(3, 1)}   // changed 1
	theirs := []rec{r(1, 1), r(2, 1), r(4, 1)} // deleted 3, added 4
	got := mergeFormula(base, ours, theirs)
	want := []rec{r(1, 2), r(2, 1), r(4, 1)}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	prev := rangeContent(0, 50, 1)
	next := withChanges(rangeContent(10, 50, 1), []int64{12, 30, 70}, 2)
	puts, dels := delta(prev, next)
	got := applyDelta(prev, puts, dels)
	if len(got) != len(next) {
		t.Fatalf("%d records, want %d", len(got), len(next))
	}
	for i := range got {
		if got[i] != next[i] {
			t.Fatalf("record %d: %v, want %v", i, got[i], next[i])
		}
	}
}
