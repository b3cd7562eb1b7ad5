package backend

import (
	"testing"

	"hybridkv/internal/sim"
)

func TestFetchPaysPenalty(t *testing.T) {
	env := sim.NewEnv()
	db := New(env)
	var v any
	env.Spawn("client", func(p *sim.Proc) { v = db.Fetch(p, "k1") })
	end := env.Run()
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
	for i := 0; i < 2*Concurrency; i++ {
		env.Spawn("client", func(p *sim.Proc) { db.Fetch(p, "k") })
	}
	if end := env.Run(); end != 2*Penalty {
		t.Errorf("%d fetches at depth %d took %v, want %v", 2*Concurrency, Concurrency, end, 2*Penalty)
	}
}
