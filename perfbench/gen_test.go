package main

import (
	"encoding/json"
	"testing"
)

// digests generates every workload's inputs for seed and fingerprints
// them.
func digests(t *testing.T, seed int64) map[string]string {
	t.Helper()
	rulings, err := genRulings(seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	batches, err := genBatches(seed)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]string{
		"rulings-closed": inputDigest(rulings, nil, nil),
		"batch-closed":   inputDigest(nil, batches, nil),
		"sweep":          inputDigest(nil, nil, buildSweepGrid(seed, 2)),
	}
}

// TestSeedDeterminesInputs pins that the seed alone fixes every
// workload's inputs: the request stream and its reference responses,
// the batch pool, and the sweep grid with its trial seeds.
func TestSeedDeterminesInputs(t *testing.T) {
	a, b, other := digests(t, 7), digests(t, 7), digests(t, 8)
	for wl := range a {
		if a[wl] != b[wl] {
			t.Errorf("%s: the same seed gave digests %s and %s", wl, a[wl], b[wl])
		}
		if a[wl] == other[wl] {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %s", wl, a[wl])
		}
	}
}

// TestRenderedBodiesMatchActions checks that a templated request body
// decodes to the action the oracle evaluates for it.
func TestRenderedBodiesMatchActions(t *testing.T) {
	in, err := genRulings(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle()
	for _, c := range in.cases[:200] {
		if c.checkpoint() {
			continue
		}
		q, err := in.request(o, c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(in.action(o, c))
		if err != nil {
			t.Fatal(err)
		}
		if string(q.body) != string(want) {
			t.Fatalf("rendered body %s, want %s", q.body, want)
		}
	}
}
