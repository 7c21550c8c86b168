package main

import (
	"fmt"
	"os"
	"sort"
)

// tally counts a run's operations, their failures by cause, and the
// samples of each operation class.
type tally struct {
	attempted int
	failed    int
	causes    map[string]int
	samples   map[string][]float64
}

func newTally() *tally {
	return &tally{causes: map[string]int{}, samples: map[string][]float64{}}
}

// op records one attempted operation; a non-nil err counts it failed
// under the given cause.
func (t *tally) op(cause string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.causes[fmt.Sprintf("%s: %v", cause, err)]++
	}
}

// add appends a latency sample to class.
func (t *tally) add(class string, v float64) {
	t.samples[class] = append(t.samples[class], v)
}

// get returns class's samples.
func (t *tally) get(class string) []float64 {
	return t.samples[class]
}

// report writes the failure causes to stderr, most frequent first.
func (t *tally) report() {
	keys := make([]string, 0, len(t.causes))
	for k := range t.causes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return t.causes[keys[i]] > t.causes[keys[j]] })
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "perfbench: %d× %s\n", t.causes[k], k)
	}
}
