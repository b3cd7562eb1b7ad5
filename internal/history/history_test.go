package history

import (
	"strings"
	"testing"

	"hybridkv/internal/sim"
)

func us(n int) sim.Time { return sim.Time(n) * sim.Microsecond }

func rules(vs []Violation) map[string]int {
	m := map[string]int{}
	for _, v := range vs {
		m[v.Rule]++
	}
	return m
}

// TestCheckCleanHistory: a well-behaved CAS chain with reads, an excused
// miss, and a monotone counter produces zero violations.
func TestCheckCleanHistory(t *testing.T) {
	l := &Log{Expected: 5}
	l.Record(Entry{Kind: Write, Key: "k", Seq: 1, OK: true, Acked: true, IssuedAt: us(1), CompletedAt: us(2)})
	l.Record(Entry{Kind: Read, Key: "k", Seq: 1, Hit: true, OK: true, IssuedAt: us(3), CompletedAt: us(4)})
	l.Record(Entry{Kind: Read, Key: "k", Hit: false, OK: false, IssuedAt: us(5), CompletedAt: us(6)}) // miss: always legal
	l.Record(Entry{Kind: IncrOp, Key: "c", Seq: 1, OK: true, IssuedAt: us(7), CompletedAt: us(8)})
	l.Record(Entry{Kind: IncrOp, Key: "c", Seq: 3, OK: true, IssuedAt: us(9), CompletedAt: us(10)}) // dup-applied incr: still monotone
	if vs := l.Check(); len(vs) != 0 {
		t.Fatalf("clean history produced violations: %v", vs)
	}
}

// TestCheckDetectsEachRule: one synthetic breach per invariant.
func TestCheckDetectsEachRule(t *testing.T) {
	l := &Log{Expected: 7}
	// acked-write-lost: acked, failed, no crash anywhere near.
	l.Record(Entry{Kind: Write, Key: "a", Seq: 1, OK: false, Acked: true, IssuedAt: us(1), CompletedAt: us(2)})
	// stale-read: seq 2 completed before the read was issued, read saw 1.
	l.Record(Entry{Kind: Write, Key: "k", Seq: 1, OK: true, IssuedAt: us(3), CompletedAt: us(4)})
	l.Record(Entry{Kind: Write, Key: "k", Seq: 2, OK: true, IssuedAt: us(5), CompletedAt: us(6)})
	l.Record(Entry{Kind: Read, Key: "k", Seq: 1, Hit: true, OK: true, IssuedAt: us(7), CompletedAt: us(8)})
	// future-read: nobody ever wrote seq 9 to "f".
	l.Record(Entry{Kind: Read, Key: "f", Seq: 9, Hit: true, OK: true, IssuedAt: us(9), CompletedAt: us(10)})
	// counter-regression.
	l.Record(Entry{Kind: IncrOp, Key: "c", Seq: 5, OK: true, IssuedAt: us(11), CompletedAt: us(12)})
	l.Record(Entry{Kind: IncrOp, Key: "c", Seq: 4, OK: true, IssuedAt: us(13), CompletedAt: us(14)})
	// time-regression + liveness (Expected 7+2=9, only recorded 8).
	l.Record(Entry{Kind: Read, Key: "t", IssuedAt: us(20), CompletedAt: us(15)})
	l.Expected = 9

	vs := l.Check()
	got := rules(vs)
	for _, rule := range []string{"acked-write-lost", "stale-read", "future-read", "counter-regression", "time-regression", "liveness"} {
		if got[rule] == 0 {
			t.Errorf("rule %q not detected (got %v)", rule, got)
		}
	}
	// The line a failing oracle prints names the rule and the entry.
	for _, v := range vs {
		if v.Rule == "stale-read" && !strings.HasPrefix(v.String(), `stale-read: read ok key="k" seq=1 [7µs..8µs]: `) {
			t.Errorf("the stale read is reported as %q", v)
		}
	}
}

// TestCrashWindowExcusesLoss: the same anomalies inside a crash window are
// legal cache behavior — warm crashes lose buffered work, cold restarts
// resurrect older SSD epochs.
func TestCrashWindowExcusesLoss(t *testing.T) {
	l := &Log{}
	l.CrashWindow(us(10), us(20))
	// Acked write whose in-flight interval spans the crash.
	l.Record(Entry{Kind: Write, Key: "a", Seq: 1, OK: false, Acked: true, IssuedAt: us(8), CompletedAt: us(30)})
	// Pre-crash write, post-crash stale read: cold restart resurrected seq 1.
	l.Record(Entry{Kind: Write, Key: "k", Seq: 2, OK: true, IssuedAt: us(5), CompletedAt: us(6)})
	l.Record(Entry{Kind: Read, Key: "k", Seq: 1, Hit: true, OK: true, IssuedAt: us(25), CompletedAt: us(26)})
	l.Record(Entry{Kind: Write, Key: "k", Seq: 1, OK: true, IssuedAt: us(1), CompletedAt: us(2)})
	// Counter regression across the crash.
	l.Record(Entry{Kind: IncrOp, Key: "c", Seq: 7, OK: true, IssuedAt: us(3), CompletedAt: us(4)})
	l.Record(Entry{Kind: IncrOp, Key: "c", Seq: 2, OK: true, IssuedAt: us(25), CompletedAt: us(26)})
	if vs := l.Check(); len(vs) != 0 {
		t.Fatalf("crash-window anomalies flagged as violations: %v", vs)
	}
}

// TestReplicatedModeDropsStaleReadCrashExcuse: with R ≥ 2 a crash cannot
// resurrect an older epoch (cold-restarted replicas confirm suspect keys
// against peers before serving them), so the same pre-crash-write /
// post-crash-stale-read pattern that TestCrashWindowExcusesLoss accepts is
// flagged when Replicated is set — while the acked-write-lost and
// counter-regression excuses remain.
func TestReplicatedModeDropsStaleReadCrashExcuse(t *testing.T) {
	l := &Log{Replicated: true}
	l.CrashWindow(us(10), us(20))
	l.Record(Entry{Kind: Write, Key: "k", Seq: 1, OK: true, IssuedAt: us(1), CompletedAt: us(2)})
	l.Record(Entry{Kind: Write, Key: "k", Seq: 2, OK: true, IssuedAt: us(5), CompletedAt: us(6)})
	l.Record(Entry{Kind: Read, Key: "k", Seq: 1, Hit: true, OK: true, IssuedAt: us(25), CompletedAt: us(26)})
	// These two stay excused by the crash window even in replicated mode.
	l.Record(Entry{Kind: Write, Key: "a", Seq: 1, OK: false, Acked: true, IssuedAt: us(8), CompletedAt: us(30)})
	l.Record(Entry{Kind: IncrOp, Key: "c", Seq: 7, OK: true, IssuedAt: us(3), CompletedAt: us(4)})
	l.Record(Entry{Kind: IncrOp, Key: "c", Seq: 2, OK: true, IssuedAt: us(25), CompletedAt: us(26)})
	got := rules(l.Check())
	if got["stale-read"] != 1 {
		t.Errorf("replicated-mode stale read across a crash not detected: %v", got)
	}
	if got["acked-write-lost"] != 0 || got["counter-regression"] != 0 {
		t.Errorf("replicated mode wrongly dropped other crash excuses: %v", got)
	}
	// A miss after the crash stays legal: eviction is still a cache's right.
	l2 := &Log{Replicated: true}
	l2.CrashWindow(us(10), us(20))
	l2.Record(Entry{Kind: Write, Key: "k", Seq: 2, OK: true, IssuedAt: us(5), CompletedAt: us(6)})
	l2.Record(Entry{Kind: Read, Key: "k", Hit: false, OK: false, IssuedAt: us(25), CompletedAt: us(26)})
	if vs := l2.Check(); len(vs) != 0 {
		t.Errorf("replicated-mode miss flagged: %v", vs)
	}
}

// TestRebalanceWindows: a finalized rebalance is clean; an unfinished one
// is rebalance-stuck; and a rebalance window never excuses a stale read —
// the same anomaly a crash window forgives stays a violation inside a
// rebalance, which is exactly the zero-loss claim the checker proves.
func TestRebalanceWindows(t *testing.T) {
	l := &Log{}
	l.RebalanceWindow(us(10), us(20))
	if vs := l.Check(); len(vs) != 0 {
		t.Fatalf("finalized rebalance flagged: %v", vs)
	}

	l.RebalanceWindow(us(30), 0)
	got := rules(l.Check())
	if got["rebalance-stuck"] != 1 {
		t.Errorf("unfinished rebalance not detected: %v", got)
	}

	// Stale read entirely inside a rebalance window: still a violation.
	l2 := &Log{Replicated: true}
	l2.RebalanceWindow(us(10), us(40))
	l2.Record(Entry{Kind: Write, Key: "k", Seq: 1, OK: true, IssuedAt: us(11), CompletedAt: us(12)})
	l2.Record(Entry{Kind: Write, Key: "k", Seq: 2, OK: true, IssuedAt: us(15), CompletedAt: us(16)})
	l2.Record(Entry{Kind: Read, Key: "k", Seq: 1, Hit: true, OK: true, IssuedAt: us(20), CompletedAt: us(21)})
	// Acked write lost mid-rebalance with no crash: also still a violation.
	l2.Record(Entry{Kind: Write, Key: "a", Seq: 1, OK: false, Acked: true, IssuedAt: us(25), CompletedAt: us(26)})
	got = rules(l2.Check())
	if got["stale-read"] != 1 {
		t.Errorf("rebalance window excused a stale read: %v", got)
	}
	if got["acked-write-lost"] != 1 {
		t.Errorf("rebalance window excused a lost acked write: %v", got)
	}
}

// TestFutureReadNotExcusedByCrash: corruption is never excused — a crash
// cannot invent a value nobody wrote.
func TestFutureReadNotExcusedByCrash(t *testing.T) {
	l := &Log{}
	l.CrashWindow(us(10), us(20))
	l.Record(Entry{Kind: Write, Key: "k", Seq: 3, OK: true, IssuedAt: us(1), CompletedAt: us(2)})
	l.Record(Entry{Kind: Read, Key: "k", Seq: 8, Hit: true, OK: true, IssuedAt: us(25), CompletedAt: us(26)})
	got := rules(l.Check())
	if got["future-read"] != 1 {
		t.Fatalf("future-read across a crash not detected: %v", got)
	}
}
