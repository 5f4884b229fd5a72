package main

import (
	"testing"
	"time"
)

// TestSequencesDisjoint checks that no key is asked twice within a run's
// sequences, that the open-loop sequences hold every request a run's open
// phases send, and that they offer the same mix for every seed.
func TestSequencesDisjoint(t *testing.T) {
	for _, seconds := range []time.Duration{time.Second, 24 * time.Second, 40 * time.Second} {
		for _, seed := range []int64{1, 2, 424242} {
			checkMiss(t, seconds, seed)
			checkSweep(t, seconds, seed)
		}
	}
}

func checkMiss(t *testing.T, seconds time.Duration, seed int64) {
	need := newSchedule(seconds, seed, serveSpecs["serve-miss"].rate).openOps()
	closed, open, err := missSequences(seed, need)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) < need {
		t.Fatalf("%v seed %d: serve-miss open sequence has %d keys, a run sends %d", seconds, seed, len(open), need)
	}
	seen := map[key]bool{}
	for _, k := range append(append([]key(nil), closed...), open...) {
		if seen[k] {
			t.Fatalf("%v seed %d: serve-miss key %s appears twice", seconds, seed, k)
		}
		seen[k] = true
	}
	if len(seen) != catalogSize {
		t.Fatalf("%v seed %d: serve-miss covers %d keys, want %d", seconds, seed, len(seen), catalogSize)
	}
	for b := 0; b < len(open); b += keyTypes {
		types := map[[3]int]bool{}
		for _, k := range open[b : b+keyTypes] {
			types[[3]int{k.model, k.accel, k.mode}] = true
		}
		if len(types) != keyTypes {
			t.Fatalf("%v seed %d: serve-miss open block %d has %d of %d types", seconds, seed, b/keyTypes, len(types), keyTypes)
		}
	}
}

func checkSweep(t *testing.T, seconds time.Duration, seed int64) {
	need := newSchedule(seconds, seed, serveSpecs["serve-sweep"].rate).openOps()
	closed, open, err := sweepSequences(seed, need)
	if err != nil {
		t.Fatal(err)
	}
	if len(open) < need || len(open)%sweepCycle != 0 {
		t.Fatalf("%v seed %d: serve-sweep open sequence has %d grids, a run sends %d", seconds, seed, len(open), need)
	}
	seen := map[key]bool{}
	for _, g := range append(append([]sweepGrid(nil), closed...), open...) {
		for _, k := range g.keys() {
			if seen[k] {
				t.Fatalf("%v seed %d: serve-sweep key %s appears twice", seconds, seed, k)
			}
			seen[k] = true
		}
	}
	if len(seen) != catalogSize {
		t.Fatalf("%v seed %d: serve-sweep covers %d keys, want %d", seconds, seed, len(seen), catalogSize)
	}
	for b := 0; b < len(open); b += len(matchings) {
		pairs := map[[2]int]bool{}
		for _, g := range open[b : b+len(matchings)] {
			pairs[g.models] = true
		}
		if len(pairs) != len(matchings) {
			t.Fatalf("%v seed %d: serve-sweep open block %d has %d of %d model pairs", seconds, seed, b/len(matchings), len(pairs), len(matchings))
		}
	}
}
