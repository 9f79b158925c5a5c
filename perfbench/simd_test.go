package main

import "testing"

func TestMixIsSeeded(t *testing.T) {
	const n = 20000
	hot := hotJobs(7)
	same, other := 0, 0
	cold := map[uint64]bool{}
	for i := 0; i < n; i++ {
		a, ka := mixAt(7, hot, i)
		b, kb := mixAt(7, hotJobs(7), i)
		if a.Workload != b.Workload || a.Scheme != b.Scheme || a.Seed != b.Seed || ka != kb {
			t.Fatalf("request %d differs between two generations of seed 7", i)
		}
		c, kc := mixAt(8, hotJobs(8), i)
		if a.Workload == c.Workload && a.Scheme == c.Scheme && (ka < 0) == (kc < 0) {
			same++
		} else {
			other++
		}
		switch {
		case ka < 0:
			if a.Seed == 7 || cold[a.Seed] {
				t.Fatalf("cold request %d reuses seed %d", i, a.Seed)
			}
			cold[a.Seed] = true
		case a.Workload != hot[ka].Workload || a.Scheme != hot[ka].Scheme || a.Seed != hot[ka].Seed:
			t.Fatalf("request %d is not hot key %d", i, ka)
		}
	}
	if other < n/2 {
		t.Errorf("seeds 7 and 8 agree on %d of %d requests", same, n)
	}
	if share := float64(len(cold)) / n; share < 0.015 || share > 0.025 {
		t.Errorf("cold share %.4f, want about 0.02", share)
	}
}

func TestHotJobsAreDistinct(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		hot := hotJobs(seed)
		if len(hot) != simdHotKeys {
			t.Fatalf("seed %d: %d hot jobs", seed, len(hot))
		}
		seen := map[[2]string]bool{}
		for _, j := range hot {
			k := [2]string{j.Workload, j.Scheme}
			if seen[k] || j.Seed != seed {
				t.Fatalf("seed %d: hot set %+v repeats a pair or uses another seed", seed, hot)
			}
			seen[k] = true
		}
	}
	a, b := hotJobs(1), hotJobs(2)
	differ := false
	for i := range a {
		differ = differ || a[i].Workload != b[i].Workload || a[i].Scheme != b[i].Scheme
	}
	if !differ {
		t.Error("seeds 1 and 2 share one hot set")
	}
}
