package placement

import (
	"os"
	"path/filepath"
	"testing"
)

// testdata/parent_manifest.json was written by the commit before
// manifests carried budget rows (53b206a), by running this file there
// (TestWriteParentFixture with LOKI_FIXTURE_OUT set). The file keeps to
// the API that commit had, so it can be copied back to regenerate.

// fixtureNodes are the fixture's primaries, in node-index order.
var fixtureNodes = []string{"http://node-a", "http://node-b"}

// fixtureManifest is two nodes, eight shards round-robin, and a replica
// on node a's shards.
func fixtureManifest(t *testing.T) *Manifest {
	t.Helper()
	m, err := RoundRobin(8, fixtureNodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Shards {
		if m.Shards[i].Primary == fixtureNodes[0] {
			m.Shards[i].Replicas = []string{"http://replica-a"}
		}
	}
	return m
}

func TestWriteParentFixture(t *testing.T) {
	out := os.Getenv("LOKI_FIXTURE_OUT")
	if out == "" {
		t.Skip("set LOKI_FIXTURE_OUT to (re)write the fixture with this commit's code")
	}
	if err := fixtureManifest(t).Save(filepath.Join(out, "parent_manifest.json")); err != nil {
		t.Fatal(err)
	}
}
