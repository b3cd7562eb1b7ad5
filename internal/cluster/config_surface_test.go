package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hybridkv/internal/blockdev"
	"hybridkv/internal/core"
	"hybridkv/internal/fault"
	"hybridkv/internal/hybridslab"
	"hybridkv/internal/pagecache"
	"hybridkv/internal/replication"
	"hybridkv/internal/server"
	"hybridkv/internal/simnet"
	"hybridkv/internal/slab"
	"hybridkv/internal/workload"
)

// configSurface is every configuration struct under internal/ and how many
// independently settable values it holds: its exported leaf fields, a nested
// struct counted by its own leaves (cluster.Config holds a whole Profile, so
// its count includes the testbed's SSD and page-cache parameters). A value
// with one setting in use is a constant, not a field (README
// "Configuration"); raising a count here is adding a knob, and needs two
// callers that want different values.
var configSurface = []struct {
	typ  reflect.Type
	want int
}{
	{reflect.TypeOf(Config{}), 29},
	{reflect.TypeOf(Profile{}), 10},
	{reflect.TypeOf(core.Config{}), 6},
	{reflect.TypeOf(server.Config{}), 4},
	{reflect.TypeOf(replication.Config{}), 3},
	{reflect.TypeOf(hybridslab.Config{}), 7},
	{reflect.TypeOf(slab.Config{}), 2},
	{reflect.TypeOf(pagecache.Params{}), 4},
	{reflect.TypeOf(blockdev.Profile{}), 6},
	{reflect.TypeOf(simnet.LinkSpec{}), 5},
	{reflect.TypeOf(fault.Config{}), 4},
	{reflect.TypeOf(workload.Config{}), 6},
	{reflect.TypeOf(workload.BlockConfig{}), 3},
}

// leaves returns the settable leaf paths of t: exported fields, a struct
// field expanded into its own.
func leaves(t reflect.Type, prefix string) (out []string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leaves(f.Type, prefix+f.Name+".")...)
			continue
		}
		out = append(out, prefix+f.Name)
	}
	return out
}

// TestConfigSurface pins the knob count of every configuration struct: a new
// field fails here, printing the table (`make knobs` prints it too).
func TestConfigSurface(t *testing.T) {
	var table strings.Builder
	fmt.Fprintf(&table, "%-22s %5s %6s  %s\n", "struct", "knobs", "pinned", "fields")
	bad := false
	for _, row := range configSurface {
		got := leaves(row.typ, "")
		mark := ""
		if len(got) != row.want {
			bad, mark = true, "  <- changed"
		}
		fmt.Fprintf(&table, "%-22s %5d %6d  %s%s\n", row.typ.String(), len(got), row.want, strings.Join(got, " "), mark)
	}
	for _, line := range strings.Split(strings.TrimSuffix(table.String(), "\n"), "\n") {
		t.Log(line)
	}
	if bad {
		t.Errorf("configuration surface changed: a value with one setting in use is a constant, not a field\n%s", table.String())
	}
}
