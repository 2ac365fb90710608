package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunFailoverBench runs the kill-node scenario at the CI smoke's
// scale and restates its gates on the report: no read blacked out while
// the primary was dead, the replica served some, submits resumed after
// the promotion, and the post-failover aggregate equals the
// single-accumulator fold. Without -failover-json nothing is written.
func TestRunFailoverBench(t *testing.T) {
	silence(t)
	prevJSON, prevN := failoverJSONPath, clusterResponses
	t.Cleanup(func() { failoverJSONPath, clusterResponses = prevJSON, prevN })
	failoverJSONPath = filepath.Join(t.TempDir(), "failover.json")
	clusterResponses = 600

	if err := runFailoverBench(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(failoverJSONPath)
	if err != nil {
		t.Fatal(err)
	}
	var fo failoverResult
	if err := json.Unmarshal(b, &fo); err != nil {
		t.Fatal(err)
	}
	if fo.ReadsDuringFailover == 0 || fo.ReadFailures != 0 || fo.StaleReads == 0 {
		t.Fatalf("read availability through the kill: %+v", fo)
	}
	if fo.SubmitsRecovered == 0 || fo.SubmitRecoveryMillis < fo.PromoteAfterMillis {
		t.Fatalf("submits did not resume after a promotion: %+v", fo)
	}
	if fo.DetectMillis <= 0 || fo.PromoteMillis < fo.PromoteAfterMillis {
		t.Fatalf("timeline: %+v", fo)
	}
	if !fo.Equivalent {
		t.Fatalf("post-failover aggregate not checked against the reference: %+v", fo)
	}
}
