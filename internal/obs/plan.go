package obs

import (
	"math"
	"strconv"
	"strings"
	"sync/atomic"
)

// This file is the Prometheus text encoder (exposition format 0.0.4).
// Everything about a scrape that does not change between scrapes (the
// order of the lines, the `# TYPE` headers, sample names, labels and
// `le` bounds) is rendered once into a plan; a scrape walks the plan
// and appends the live values.

// PrometheusContentType is the Content-Type of AppendPrometheus's
// output.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// lineKind says how a plan line's value is read and rendered.
type lineKind uint8

const (
	lineCounter lineKind = iota // n, as an integer
	lineGauge                   // g, as a float
	lineBucket                  // the running total of the histogram's bucket counts n
	lineSum                     // n in microunits, as a float
	lineCount                   // the running total the +Inf bucket line just wrote
)

// planLine is one line of the exposition: the bytes up to the value
// (the family's `# TYPE` header when the line opens it, then the sample
// name, its labels and a space) and the handle the value is loaded
// from.
type planLine struct {
	prefix []byte
	kind   lineKind
	n      *atomic.Int64
	g      *Gauge
}

// exposition returns the current plan, rebuilding it if a metric was
// registered since the last scrape. A plan is never modified once
// built, so the caller walks it without the lock.
func (r *Registry) exposition() []planLine {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.plan == nil {
		r.plan = r.buildPlan()
	}
	return r.plan
}

// buildPlan lays the registry out in exposition order: counters, gauges
// and histograms, each sorted by name, one `# TYPE` header per family.
// A name's literal {label="value"} suffix is carried verbatim; on a
// histogram the `_bucket`/`_sum`/`_count` suffix goes on the base name
// and `le` joins the labels the name already has. The caller holds
// r.mu.
func (r *Registry) buildPlan() []planLine {
	n := len(r.counters) + len(r.gauges)
	for _, h := range r.hists {
		n += len(h.counts) + 2
	}
	plan := make([]planLine, 0, n) // non-nil even when empty: nil means "rebuild"
	typed := map[string]bool{}
	add := func(family, kind, sample string, l planLine) {
		if !typed[family] {
			typed[family] = true
			l.prefix = append(l.prefix, "# TYPE "+family+" "+kind+"\n"...)
		}
		l.prefix = append(append(l.prefix, sample...), ' ')
		plan = append(plan, l)
	}
	for _, name := range sortedKeys(r.counters) {
		family, _, _ := strings.Cut(name, "{")
		add(family, "counter", name, planLine{kind: lineCounter, n: &r.counters[name].v})
	}
	for _, name := range sortedKeys(r.gauges) {
		family, _, _ := strings.Cut(name, "{")
		add(family, "gauge", name, planLine{kind: lineGauge, g: r.gauges[name]})
	}
	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		family, labels, _ := strings.Cut(name, "{")
		labels = strings.TrimSuffix(labels, "}")
		braced := "" // the name's own labels, as _sum and _count carry them
		if labels != "" {
			braced = "{" + labels + "}"
			labels += ","
		}
		for i := range h.counts {
			le := "+Inf"
			if i < len(h.bounds) {
				le = string(appendFloat(nil, h.bounds[i]))
			}
			add(family, "histogram", family+"_bucket{"+labels+`le="`+le+`"}`, planLine{kind: lineBucket, n: &h.counts[i]})
		}
		add(family, "histogram", family+"_sum"+braced, planLine{kind: lineSum, n: &h.sumMicros})
		add(family, "histogram", family+"_count"+braced, planLine{kind: lineCount})
	}
	return plan
}

// AppendPrometheus appends the registry's live state to dst in the
// Prometheus text exposition format and returns the extended slice. It
// reads every value with one atomic load at the moment its line is
// written, holds no lock while encoding and allocates only to grow dst,
// so a scrape into a reused buffer costs no allocation. A histogram's
// `_count` is the cumulative total its own `+Inf` bucket line carries
// (the format requires the two to agree, and separate loads under
// concurrent Observe calls would not). A nil registry appends nothing.
func (r *Registry) AppendPrometheus(dst []byte) []byte {
	if r == nil {
		return dst
	}
	var cum int64
	plan := r.exposition()
	for i := range plan {
		l := &plan[i]
		dst = append(dst, l.prefix...)
		switch l.kind {
		case lineCounter:
			dst = strconv.AppendInt(dst, l.n.Load(), 10)
		case lineGauge:
			dst = appendFloat(dst, l.g.Value())
		case lineBucket:
			cum += l.n.Load()
			dst = strconv.AppendInt(dst, cum, 10)
		case lineSum:
			dst = appendFloat(dst, fromMicros(l.n.Load()))
		case lineCount:
			dst = strconv.AppendInt(dst, cum, 10)
			cum = 0
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendFloat renders a float the way Prometheus expects.
func appendFloat(dst []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(dst, "+Inf"...)
	case math.IsInf(v, -1):
		return append(dst, "-Inf"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}
