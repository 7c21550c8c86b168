package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/trace"
)

// goldenGOARCH is the architecture testdata/golden_reports.json was
// generated on. Go may fuse multiply-adds on other architectures, which
// legitimately changes float bits, so the digests are only checked here.
const goldenGOARCH = "amd64"

// reportDigest is the SHA-256 of the Report's JSON encoding with every
// Pipeline stage's Wall and Bytes zeroed (the run-varying fields), the
// same normalization perfbench applies to served Reports.
func reportDigest(t *testing.T, r *Report) string {
	t.Helper()
	for i := range r.Pipeline {
		r.Pipeline[i].Wall, r.Pipeline[i].Bytes = 0, 0
	}
	js, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(js)
	return hex.EncodeToString(sum[:])
}

// encodeApp simulates one example app (4 ranks, 60 iterations) and
// returns the trace with its binary encoding.
func encodeApp(t *testing.T, name string) (*trace.Trace, []byte) {
	t.Helper()
	app, err := apps.ByName(name, 60)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := sim.Run(apps.DefaultTraceConfig(4), app)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return tr, buf.Bytes()
}

// digester records one digest per pinned analysis under its key.
type digester struct {
	t   *testing.T
	got map[string]string
}

func (d *digester) analyze(key string, f func() (*Report, error)) {
	d.t.Helper()
	r, err := f()
	if err != nil {
		d.t.Fatalf("%s: %v", key, err)
	}
	d.got[key] = reportDigest(d.t, r)
}

// checkGolden compares got with the digests committed in
// testdata/golden_reports.json whose keys own accepts: every analysis
// must have a golden digest and every owned golden digest an analysis.
func checkGolden(t *testing.T, got map[string]string, own func(key string) bool) {
	t.Helper()
	if runtime.GOARCH != goldenGOARCH {
		t.Skipf("golden digests were generated on %s, not %s", goldenGOARCH, runtime.GOARCH)
	}
	raw, err := os.ReadFile("testdata/golden_reports.json")
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for key, d := range got {
		if w, ok := want[key]; !ok || !own(key) {
			t.Errorf("%s: no golden digest (got %s)", key, d)
		} else if d != w {
			t.Errorf("%s: Report digest %s, golden %s", key, d, w)
		}
	}
	for key := range want {
		if _, ok := got[key]; own(key) && !ok {
			t.Errorf("%s: golden digest has no analysis", key)
		}
	}
}

func isLenientKey(key string) bool { return strings.Contains(key, "/lenient-") }

// TestColumnarEquivalence pins the Report of every analysis entry point,
// bit for bit, to digests committed in testdata/golden_reports.json:
// every example app (4 ranks, 60 iterations) under batch Analyze, exact
// AnalyzeStream and online AnalyzeStream. The digests were generated
// while the row-layout pipeline still existed and produced Reports
// identical to the columnar one, so they keep the columnar pipeline
// equivalent to that reference after its deletion.
func TestColumnarEquivalence(t *testing.T) {
	d := &digester{t: t, got: map[string]string{}}
	for _, name := range apps.Names() {
		tr, enc := encodeApp(t, name)
		d.analyze(name+"/batch", func() (*Report, error) { return Analyze(tr, Options{}) })
		d.analyze(name+"/stream", func() (*Report, error) {
			return AnalyzeStream(bytes.NewReader(enc), Options{})
		})
		d.analyze(name+"/online", func() (*Report, error) {
			return AnalyzeStream(bytes.NewReader(enc),
				Options{Stream: StreamOptions{Online: true, TrainBursts: 64}})
		})
	}
	checkGolden(t, d.got, func(key string) bool { return !isLenientKey(key) })
}

// TestColumnarEquivalenceLenient pins, the same way, the Lenient salvage
// of a truncated and of a bit-flipped stencil encoding, DecodeStats
// included.
func TestColumnarEquivalenceLenient(t *testing.T) {
	_, stencil := encodeApp(t, "stencil")
	flip := append([]byte(nil), stencil...)
	flip[len(flip)/2] ^= 0x40
	d := &digester{t: t, got: map[string]string{}}
	for dn, data := range map[string][]byte{
		"truncated": stencil[: len(stencil)*3/5 : len(stencil)*3/5],
		"bitflip":   flip,
	} {
		d.analyze("stencil/lenient-"+dn, func() (*Report, error) {
			r, err := AnalyzeStream(bytes.NewReader(data), Options{Lenient: true})
			if err == nil && r.Decode == nil {
				t.Fatalf("%s: lenient Report has no DecodeStats", dn)
			}
			return r, err
		})
	}
	checkGolden(t, d.got, isLenientKey)
}
