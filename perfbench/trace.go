package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Run    string `json:"run"`
}

// layer is the span name up to its first dot: "core.decide" → "core".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span of one run in memory; write saves them when the
// run ends. A nil *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	base  time.Time
	run   string
	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{base: time.Now(), run: run}
}

// scope tracks the open spans of one goroutine, so a span begun inside
// another becomes its child. Each goroutine that records spans owns one.
type scope struct {
	t     *tracer
	stack []int
}

func (t *tracer) scope() *scope { return &scope{t: t} }

// child starts a new scope whose first span's parent is the current span
// of s — for work handed to another goroutine.
func (s *scope) child() *scope {
	if s == nil {
		return nil
	}
	return &scope{t: s.t, stack: []int{s.current()}}
}

func (s *scope) current() int {
	if len(s.stack) == 0 {
		return 0
	}
	return s.stack[len(s.stack)-1]
}

// begin opens a span named name under the scope's current span.
func (s *scope) begin(name string) {
	if s == nil {
		return
	}
	now := time.Since(s.t.base).Nanoseconds()
	s.t.mu.Lock()
	id := len(s.t.spans) + 1
	s.t.spans = append(s.t.spans, span{ID: id, Parent: s.current(), Name: name, Start: now, Run: s.t.run})
	s.t.mu.Unlock()
	s.stack = append(s.stack, id)
}

// end closes the scope's innermost open span.
func (s *scope) end() {
	if s == nil {
		return
	}
	now := time.Since(s.t.base).Nanoseconds()
	id := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.t.mu.Lock()
	s.t.spans[id-1].End = now
	s.t.mu.Unlock()
}

// do runs fn inside a span.
func (s *scope) do(name string, fn func() error) error {
	s.begin(name)
	defer s.end()
	return fn()
}

// counter accumulates calls and time for a boundary crossed too often to
// keep a span per call (a fault draw per node and round). Safe for
// concurrent use.
type counter struct {
	calls atomic.Int64
	ns    atomic.Int64
}

func (c *counter) add(d time.Duration) {
	c.calls.Add(1)
	c.ns.Add(int64(d))
}

// perCall returns the mean nanoseconds per call, 0 when never called.
func (c *counter) perCall() float64 {
	n := c.calls.Load()
	if n == 0 {
		return 0
	}
	return float64(c.ns.Load()) / float64(n)
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the durations of every span called name.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTimes returns each layer's self time: the duration of its spans less
// the part of each span's interval its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's. Children may overlap when they ran on several
// goroutines.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, t.run+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, f.Close()
}
