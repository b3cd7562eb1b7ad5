package backend

import (
	"testing"

	"hybridkv/internal/sim"
)

func TestFetchPaysPenalty(t *testing.T) {
	env := sim.NewEnv()
	db := New(env, Config{})
	var v any
	env.Spawn("client", func(p *sim.Proc) { v = db.Fetch(p, "k1") })
	end := env.Run()
	if end != DefaultPenalty {
		t.Errorf("fetch took %v, want %v", end, DefaultPenalty)
	}
	if v != "db:k1" {
		t.Errorf("fetch returned %v", v)
	}
	if db.Accesses != 1 || db.TimeSpent != DefaultPenalty {
		t.Errorf("stats %d/%v", db.Accesses, db.TimeSpent)
	}
}

func TestCustomPenalty(t *testing.T) {
	env := sim.NewEnv()
	db := New(env, Config{Penalty: 500 * sim.Microsecond})
	env.Spawn("client", func(p *sim.Proc) { db.Fetch(p, "x") })
	if end := env.Run(); end != 500*sim.Microsecond {
		t.Errorf("fetch took %v", end)
	}
}

func TestConcurrencyBound(t *testing.T) {
	env := sim.NewEnv()
	db := New(env, Config{Penalty: sim.Millisecond, Concurrency: 2})
	for i := 0; i < 4; i++ {
		env.Spawn("client", func(p *sim.Proc) { db.Fetch(p, "k") })
	}
	if end := env.Run(); end != 2*sim.Millisecond {
		t.Errorf("4 fetches at depth 2 took %v, want 2ms", end)
	}
}
