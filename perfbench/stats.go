package main

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// resetPeakRSS restarts the resident-set high-water mark from the
// current RSS (Linux clear_refs 5), so peakRSSMB covers what follows —
// the measured window, not the set-up. Where the kernel lacks it the
// mark keeps covering the whole process life.
func resetPeakRSS() {
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process resident-set high-water mark (VmHWM) in
// MB, or NaN where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// series is one parsed Prometheus text-format sample.
type series struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape holds the samples of one or more /metrics pages.
type scrape []series

// parse parses a page in Prometheus text exposition format (the subset
// obs.Registry renders: no escapes inside label values beyond \", no
// timestamps) and appends its samples to s.
func (s *scrape) parse(page []byte) {
	sc := bufio.NewScanner(bytes.NewReader(page))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		head := line[:sp]
		sr := series{name: head, labels: map[string]string{}, value: v}
		if i := strings.IndexByte(head, '{'); i >= 0 && strings.HasSuffix(head, "}") {
			sr.name = head[:i]
			for _, kv := range splitLabels(head[i+1 : len(head)-1]) {
				k, val, ok := strings.Cut(kv, "=")
				if ok {
					sr.labels[k] = strings.Trim(val, `"`)
				}
			}
		}
		*s = append(*s, sr)
	}
}

// splitLabels splits a label body on commas outside quotes.
func splitLabels(body string) []string {
	var out []string
	inQ := false
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				inQ = !inQ
			}
		case ',':
			if !inQ {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	if start < len(body) {
		out = append(out, body[start:])
	}
	return out
}

// sum adds every sample of the named family whose labels include all of
// the given name=value pairs.
func (s scrape) sum(name string, want ...string) float64 {
	var total float64
	for _, sr := range s {
		if sr.name != name || !sr.match(want) {
			continue
		}
		total += sr.value
	}
	return total
}

func (sr series) match(want []string) bool {
	for i := 0; i+1 < len(want); i += 2 {
		if sr.labels[want[i]] != want[i+1] {
			return false
		}
	}
	return true
}

// quantile estimates the q-quantile (0..1) of a histogram family summed
// over every scraped page, interpolating linearly inside the bucket the
// rank falls in (the histogram_quantile rule).
func (s scrape) quantile(name string, q float64) float64 {
	cum := map[float64]float64{}
	for _, sr := range s {
		if sr.name != name+"_bucket" {
			continue
		}
		le := sr.labels["le"]
		b := math.Inf(1)
		if le != "+Inf" {
			var err error
			if b, err = strconv.ParseFloat(le, 64); err != nil {
				continue
			}
		}
		cum[b] += sr.value
	}
	bounds := make([]float64, 0, len(cum))
	for b := range cum {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] == 0 {
		return math.NaN()
	}
	rank := q * cum[bounds[len(bounds)-1]]
	prevB, prevC := 0.0, 0.0
	for _, b := range bounds {
		c := cum[b]
		if c >= rank {
			if math.IsInf(b, 1) {
				return prevB
			}
			if c == prevC {
				return b
			}
			return prevB + (b-prevB)*(rank-prevC)/(c-prevC)
		}
		prevB, prevC = b, c
	}
	return prevB
}
