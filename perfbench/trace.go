package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval: a client request, a workload phase, or a call
// into one layer's public functions during the in-process replay. Parent 0
// is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// reqs counts the client request spans and reqCost sums the time
	// recording them took: the tracing a request's connection waits for.
	reqs    int
	reqCost time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.push(name, parent, start, end)
}

// push appends a span; t.mu is held.
func (t *tracer) push(name string, parent int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	return id
}

// request records a client request's span and times the recording.
func (t *tracer) request(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t0 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.push(name, parent, start, end)
	t.reqs++
	t.reqCost += time.Since(t0)
}

// requestCostMS is the mean time in ms recording a client request's span
// took.
func (t *tracer) requestCostMS() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.reqs == 0 {
		return 0
	}
	return ms(t.reqCost) / float64(t.reqs)
}

// begin opens a span and returns its id and the func that closes it.
func (t *tracer) begin(name string, parent int) (int, func()) {
	if t == nil {
		return 0, func() {}
	}
	now := time.Now()
	id := t.add(name, parent, now, now)
	return id, func() {
		end := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	t.add(name, parent, start, end)
	return end.Sub(start), err
}

func (b *bench) span(name string, parent int) func() {
	_, end := b.tr.begin(name, parent)
	return end
}

// selfTimes sums, per layer, each span's duration minus the part of it its
// children cover. A span's layer is its name up to the first dot.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		covered, cur := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, cur), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
