package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hybridkv/internal/sim"
)

// span is one timed interval recorded by the benchmark around its own calls
// into the client library. Spans of one operation share op; parent is the
// id of the enclosing span (0 for the op span itself). Times are in ns on
// both clocks: v* virtual, h* host since the tracer was created.
type span struct {
	name   string
	id     int32
	parent int32
	op     int32
	v0, v1 int64
	h0, h1 int64
}

// tracer keeps spans in memory and writes them only when the run has ended.
// A nil *tracer is tracing off: every method returns at once.
type tracer struct {
	base  time.Time
	spans []span
	ops   int32
}

func newTracer(ops int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 3*ops)}
}

// host returns host ns since the tracer's start (0 when tracing is off).
func (t *tracer) host() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.base))
}

// add appends one op span and returns its id.
func (t *tracer) add(name string, parent int32, v0, v1 sim.Time, h0, h1 int64) int32 {
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{name, id, parent, t.ops, int64(v0), int64(v1), h0, h1})
	return id
}

// completed records the spans of a finished request: the op span from its
// start (Issue's entry, or the due time in the open loop) to completion, with
// core.issue and core.wait under it. The host end is when the benchmark
// observed the completion.
func (t *tracer) completed(f inflight) {
	if t == nil {
		return
	}
	now, done := t.host(), f.req.CompletedAt
	t.ops++
	op := t.add("op", 0, f.start, done, f.h0, now)
	t.add("core.issue", op, f.entered, f.issued, f.h0, f.h1)
	t.add("core.wait", op, f.issued, done, f.h1, now)
}

// blocking records one call of a blocking wrapper, which hides its Issue:
// the op span has the single child core.wait.
func (t *tracer) blocking(v0, v1 sim.Time, h0 int64) {
	if t == nil {
		return
	}
	now := t.host()
	t.ops++
	op := t.add("op", 0, v0, v1, h0, now)
	t.add("core.wait", op, v0, v1, h0, now)
}

// write stores the spans as JSON lines under dir and returns the file name.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"op":%d,"v0":%d,"v1":%d,"h0":%d,"h1":%d}`+"\n",
			s.name, s.id, s.parent, s.op, s.v0, s.v1, s.h0, s.h1)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return name, f.Close()
}
