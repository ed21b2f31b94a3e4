package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// opControl counts the harness's control requests (the forced rebuild).
const opControl = numOps

// metric is one reported number. n is its sample count and note says how
// it was taken.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	note  string
}

// report is everything one run prints.
type report struct {
	e2e, layer []metric
	info       []metric // printed but not in the result line
	ops, fails [numOps + 1]int
	errs       []string
	failed     []string // failed end-of-run checks
}

func (r *report) note(err string) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

func (r *report) fail(format string, args ...any) {
	r.failed = append(r.failed, fmt.Sprintf(format, args...))
}

func (r *report) attempted() (n int) {
	for _, k := range r.ops {
		n += k
	}
	return n
}

func (r *report) failedOps() (n int) {
	for _, k := range r.fails {
		n += k
	}
	return n + len(r.failed)
}

func (r *report) correct() bool { return r.failedOps() == 0 }

// timing adds a median and the tail percentile a sample supports under the
// names given; the tail is reported only when it has minBeyond samples
// beyond it, and the named percentile q must be supported to be gated.
func timing(list *[]metric, p50Name, tailName string, q float64, xs []float64, unit string) {
	d := newDist(xs)
	*list = append(*list, metric{name: p50Name, value: d.at(0.5), unit: unit, n: d.n(), note: "median"})
	note := fmt.Sprintf("%s, %d samples beyond", pct(q), d.beyond(q))
	if tq, _, _, ok := d.tail(); !ok || tq < q {
		note += fmt.Sprintf(" — fewer than %d: not a supported tail", minBeyond)
	}
	*list = append(*list, metric{name: tailName, value: d.at(q), unit: unit, n: d.n(), note: note})
}

func (r *report) print(w io.Writer, trace bool) error {
	section := func(title string, ms []metric) {
		for _, m := range ms {
			fmt.Fprintf(w, "%-6s %-34s %14.6g %-6s n=%d", title, m.name, m.value, m.unit, m.n)
			if m.note != "" {
				fmt.Fprintf(w, "  (%s)", m.note)
			}
			fmt.Fprintln(w)
		}
	}
	section("info", r.info)
	if trace {
		section("layer", r.layer)
	} else {
		section("e2e", r.e2e)
	}
	for k := range r.ops {
		name := "control"
		if k < int(numOps) {
			name = opNames[k]
		}
		if r.ops[k] > 0 {
			fmt.Fprintf(w, "ops    %-34s %14d failed %d\n", name, r.ops[k], r.fails[k])
		}
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "error  %s\n", e)
	}
	for _, f := range r.failed {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}

	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := r.e2e
	if trace {
		ms = r.layer
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct(), r.attempted(), r.failedOps(), map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, strings.TrimSpace(string(b)))
	return err
}
