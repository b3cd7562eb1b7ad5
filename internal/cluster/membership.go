package cluster

import (
	"fmt"

	"hybridkv/internal/replication"
	"hybridkv/internal/server"
	"hybridkv/internal/sim"
)

// Dynamic membership operations. All three require a replicated deployment
// (ReplicationFactor > 1): a fleet that cannot re-replicate data has no
// safe way to reshard. Transitions are serialized — begin the next only
// after the previous one's done event fired (AwaitRebalance). The actual
// key movement runs in the background on the replicators' migration
// engines while the cluster keeps serving; see internal/replication.

// Join builds, starts, and wires a new server into the running deployment
// — fabric node, store, replicator joined to the QP mesh, bypass directory
// if configured, and one client connection per client — then begins the
// membership transition that migrates its key range over. Returns the new
// server and the transition's finalize event.
func (cl *Cluster) Join() (*server.Server, *sim.Event) {
	if cl.Membership == nil {
		panic("cluster: Join requires ReplicationFactor > 1")
	}
	id := len(cl.Servers)
	srv := cl.buildServer(id)
	srv.Start()
	cl.Servers = append(cl.Servers, srv)
	repl := cl.attachReplicator(id, srv)
	replication.Join(cl.Replicators, repl)
	cl.Replicators = append(cl.Replicators, repl)
	if cl.cfg.Bypass {
		cl.attachDirectory(srv)
	}
	// Clients connect before the ring changes so the first request routed
	// to the newcomer finds a live connection (conn index == server id).
	for _, c := range cl.Clients {
		c.ConnectRDMA(srv)
	}
	done := cl.Membership.BeginJoin(id)
	return srv, done
}

// Decommission begins a graceful leave: the server drops off the current
// ring but keeps serving as a migration source until every segment of its
// range is re-owned, then is crashed and its client-side state (breakers,
// location caches, hot-set entries) released. Returns the transition's
// finalize event.
func (cl *Cluster) Decommission(id int) *sim.Event {
	if cl.Membership == nil {
		panic("cluster: Decommission requires ReplicationFactor > 1")
	}
	done := cl.Membership.BeginLeave(id, true)
	cl.Env.Spawn(fmt.Sprintf("decommission%d", id), func(p *sim.Proc) {
		p.Wait(done)
		cl.Servers[id].Crash()
		for _, c := range cl.Clients {
			c.Retire(id)
		}
	})
	return done
}

// Leave begins an abrupt leave for a server that is already gone (killed
// and not coming back): it is excluded from the migration's pull sources,
// so the survivors re-replicate its range from the remaining replicas.
// Client state for the node is released immediately. Returns the
// transition's finalize event.
func (cl *Cluster) Leave(id int) *sim.Event {
	if cl.Membership == nil {
		panic("cluster: Leave requires ReplicationFactor > 1")
	}
	done := cl.Membership.BeginLeave(id, false)
	for _, c := range cl.Clients {
		c.Retire(id)
	}
	return done
}

// AwaitRebalance blocks until the in-flight membership transition (if any)
// finalizes.
func (cl *Cluster) AwaitRebalance(p *sim.Proc) {
	if cl.Membership == nil || !cl.Membership.Migrating() {
		return
	}
	p.Wait(cl.Membership.DoneOf(cl.Membership.Epoch()))
}
