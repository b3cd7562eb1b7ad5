package backend

import (
	"testing"

	"hybridkv/internal/sim"
)

func TestFetchPaysPenalty(t *testing.T) {
	env := sim.NewEnv()
	db := New(env)
	var v any
	end := sim.Drive(t, env, "client", func(p *sim.Proc) { v = db.Fetch(p, "k1") })
	if end != Penalty {
		t.Errorf("fetch took %v, want %v", end, Penalty)
	}
	if v != "db:k1" {
		t.Errorf("fetch returned %v", v)
	}
	if db.Accesses != 1 || db.TimeSpent != Penalty {
		t.Errorf("stats %d/%v", db.Accesses, db.TimeSpent)
	}
}

func TestConcurrencyBound(t *testing.T) {
	env := sim.NewEnv()
	db := New(env)
	var cs []sim.Driver
	for i := 0; i < 2*Concurrency; i++ {
		cs = append(cs, sim.Driver{Name: "client", Fn: func(p *sim.Proc) { db.Fetch(p, "k") }})
	}
	if end := sim.DriveUntil(t, env, -1, cs...); end != 2*Penalty {
		t.Errorf("%d fetches at depth %d took %v, want %v", 2*Concurrency, Concurrency, end, 2*Penalty)
	}
}
