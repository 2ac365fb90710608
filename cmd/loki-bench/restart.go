// Restart measurement ("restart" id): first-read-after-restart latency
// against a store preloaded with N responses, without checkpoints (the
// first read rescans the whole backlog, O(N)) versus with a durable
// accumulator checkpoint (restore + scan only the tail appended since
// the checkpoint, O(tail) — near-flat across store sizes). The run
// fails if the checkpointed first read scans anything but the tail.
// The report goes to -restart-json when that is set.
package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"loki/internal/checkpoint"
	"loki/internal/core"
	"loki/internal/server"
	"loki/internal/store"
	"loki/internal/survey"
)

// restartJSONPath is where the machine-readable report goes; set by the
// -restart-json flag.
var restartJSONPath = ""

// restartSizesFlag selects the stored-response counts to measure; set by
// the -restart-sizes flag.
var restartSizesFlag = "10000,100000,1000000"

// restartTrials is how many fresh restarts each latency is measured
// over; the minimum is reported (first-read latency is a one-shot
// number, so best-of smooths scheduler noise).
const restartTrials = 3

// restartTail is how many responses arrive between a checkpoint and the
// restart: what a checkpointed first read has to scan, and all it may.
const restartTail = 64

// restartResult is one store size's measurement.
type restartResult struct {
	// Responses is the store size the first checkpoint covers; every
	// trial appends restartTail more before it restarts.
	Responses int `json:"responses"`
	// ColdFirstReadSeconds is the first /aggregate latency of a server
	// with no checkpoint: the whole-backlog catch-up scan.
	ColdFirstReadSeconds float64 `json:"cold_first_read_seconds"`
	// CheckpointFirstReadSeconds is the first /aggregate latency of a
	// freshly restarted server restoring a checkpoint that covers all
	// but the last restartTail stored responses.
	CheckpointFirstReadSeconds float64 `json:"checkpoint_first_read_seconds"`
	Speedup                    float64 `json:"speedup"`
	// ColdScanned and CheckpointScanned count the records each first
	// read of the last trial pulled from the store: everything, and the
	// tail.
	ColdScanned       int64 `json:"cold_scanned"`
	CheckpointScanned int64 `json:"checkpoint_scanned"`
	// CheckpointOpenSeconds is the one-per-process cost of replaying the
	// checkpoint log at startup.
	CheckpointOpenSeconds float64 `json:"checkpoint_open_seconds"`
	// CheckpointBytes is the on-disk size of the checkpoint log.
	CheckpointBytes int64 `json:"checkpoint_bytes"`
}

// restartReport is the -restart-json schema.
type restartReport struct {
	Schema  int             `json:"schema"`
	Results []restartResult `json:"results"`
}

// scanCounter counts the records a server's catch-up pulls from the
// store.
type scanCounter struct {
	store.Store
	scanned atomic.Int64
}

func (c *scanCounter) ScanResponses(surveyID string, fromSeq uint64, fn func(uint64, *survey.Response) error) error {
	return c.Store.ScanResponses(surveyID, fromSeq, func(seq uint64, r *survey.Response) error {
		c.scanned.Add(1)
		return fn(seq, r)
	})
}

// firstReadSeconds builds nothing and measures exactly one aggregate
// query through the real HTTP handler — for a fresh server, the
// first-read catch-up path.
func firstReadSeconds(srv *server.Server, surveyID, token string) (float64, error) {
	req := httptest.NewRequest(http.MethodGet, "/api/v1/surveys/"+surveyID+"/aggregate", nil)
	req.Header.Set("Authorization", "Bearer "+token)
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.ServeHTTP(rec, req)
	elapsed := time.Since(start).Seconds()
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("aggregate HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return elapsed, nil
}

// runRestartBench measures every configured store size and writes the
// report.
func runRestartBench(sizes []int) error {
	const token = "bench-token"
	report := restartReport{Schema: 2}
	sv := clusterSurvey()

	for _, n := range sizes {
		st := &scanCounter{Store: store.NewMem()}
		if _, err := st.Publish(sv); err != nil {
			return err
		}
		if err := fillReadpathStore(st, sv, n); err != nil {
			return fmt.Errorf("restart bench: fill %d: %w", n, err)
		}

		dir, err := os.MkdirTemp("", "loki-restart-bench-")
		if err != nil {
			return err
		}

		res, err := measureRestart(st, dir, sv, token, n)
		os.RemoveAll(dir)
		st.Close()
		if err != nil {
			return err
		}
		report.Results = append(report.Results, *res)
	}

	fmt.Fprintln(out, "RESTART — first aggregate read after a restart, whole-backlog rescan vs checkpoint restore + tail scan")
	for _, r := range report.Results {
		fmt.Fprintf(out, "  %9d stored   cold %9.2fms (%d scanned)   checkpointed %9.3fms (%d scanned)   %8.1fx   (log open %.3fms, %d bytes)\n",
			r.Responses, r.ColdFirstReadSeconds*1e3, r.ColdScanned, r.CheckpointFirstReadSeconds*1e3, r.CheckpointScanned,
			r.Speedup, r.CheckpointOpenSeconds*1e3, r.CheckpointBytes)
	}
	fmt.Fprintln(out)
	return writeReport(restartJSONPath, &report)
}

// measureRestart takes one checkpoint covering the n stored responses,
// then per trial appends a tail and measures cold and checkpointed
// first-read latency over fresh server instances (each trial is a
// genuine restart: empty live state, replayed checkpoint log; closing
// its server checkpoints again, so the next trial's tail is as long).
func measureRestart(st *scanCounter, dir string, sv *survey.Survey, token string, n int) (*restartResult, error) {
	surveyID := sv.ID
	// Warm run: catch up once, checkpoint, shut down cleanly.
	ck, err := checkpoint.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Store: st, Schedule: core.DefaultSchedule(), RequesterToken: token,
		Checkpoints: ck, CheckpointInterval: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	if _, err := firstReadSeconds(srv, surveyID, token); err != nil {
		return nil, fmt.Errorf("restart bench: warm catch-up at %d: %w", n, err)
	}
	if err := srv.Close(); err != nil { // final flush writes the checkpoint
		return nil, err
	}
	if err := ck.Close(); err != nil {
		return nil, err
	}
	// The log is a directory of per-survey files now; sum them.
	var ckptBytes int64
	_ = filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, ferr := d.Info(); ferr == nil {
				ckptBytes += fi.Size()
			}
		}
		return nil
	})

	res := &restartResult{Responses: n, CheckpointBytes: ckptBytes}
	for trial := 0; trial < restartTrials; trial++ {
		stored := n + (trial+1)*restartTail
		for i := stored - restartTail; i < stored; i++ {
			if err := st.AppendResponse(clusterResponse(sv, i)); err != nil {
				return nil, err
			}
		}
		st.scanned.Store(0)
		// Cold restart: no checkpoint log, first read rescans everything.
		srvCold, err := server.New(server.Config{Store: st, Schedule: core.DefaultSchedule(), RequesterToken: token})
		if err != nil {
			return nil, err
		}
		cold, err := firstReadSeconds(srvCold, surveyID, token)
		if err != nil {
			return nil, fmt.Errorf("restart bench: cold read at %d: %w", n, err)
		}
		res.ColdScanned = st.scanned.Swap(0)

		// Checkpointed restart: replay the log, restore, scan the tail.
		openStart := time.Now()
		ck2, err := checkpoint.Open(dir)
		if err != nil {
			return nil, err
		}
		openSecs := time.Since(openStart).Seconds()
		srvWarm, err := server.New(server.Config{
			Store: st, Schedule: core.DefaultSchedule(), RequesterToken: token,
			Checkpoints: ck2, CheckpointInterval: time.Hour,
		})
		if err != nil {
			return nil, err
		}
		warm, err := firstReadSeconds(srvWarm, surveyID, token)
		if err != nil {
			return nil, fmt.Errorf("restart bench: checkpointed read at %d: %w", n, err)
		}
		if res.CheckpointScanned = st.scanned.Load(); res.CheckpointScanned != restartTail || res.ColdScanned != int64(stored) {
			return nil, fmt.Errorf("restart bench: at %d stored the checkpointed first read scanned %d records and the cold one %d, want the %d-record tail and all %d",
				stored, res.CheckpointScanned, res.ColdScanned, restartTail, stored)
		}
		if err := srvWarm.Close(); err != nil {
			return nil, err
		}
		if err := ck2.Close(); err != nil {
			return nil, err
		}

		if trial == 0 || cold < res.ColdFirstReadSeconds {
			res.ColdFirstReadSeconds = cold
		}
		if trial == 0 || warm < res.CheckpointFirstReadSeconds {
			res.CheckpointFirstReadSeconds = warm
		}
		if trial == 0 || openSecs < res.CheckpointOpenSeconds {
			res.CheckpointOpenSeconds = openSecs
		}
	}
	res.Speedup = res.ColdFirstReadSeconds / res.CheckpointFirstReadSeconds
	return res, nil
}
