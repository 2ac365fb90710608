package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"loki/internal/blockio"
	"loki/internal/dp"
)

// ledgerSnapshot is the serialized form of a Ledger. The event list is
// kept verbatim so a restored ledger reports exactly the same totals
// under every composition rule.
type ledgerSnapshot struct {
	Version     int        `json:"version"`
	Delta       float64    `json:"delta"`
	Unprotected int        `json:"unprotected"`
	Surveys     []string   `json:"surveys"`
	Events      []dp.Event `json:"events"`
}

// snapshotVersion guards the on-disk format.
const snapshotVersion = 1

// WriteTo serializes the ledger as JSON. It implements enough of the
// io.WriterTo convention for callers to persist a user's privacy history
// across app restarts — the history must survive, otherwise a reinstall
// would silently reset the user's cumulative loss to zero.
func (lg *Ledger) WriteTo(w io.Writer) (int64, error) {
	lg.mu.Lock()
	snap := ledgerSnapshot{
		Version:     snapshotVersion,
		Delta:       lg.delta,
		Unprotected: lg.unprotected,
		Surveys:     append([]string(nil), lg.surveys...),
		Events:      lg.acct.Events(),
	}
	lg.mu.Unlock()
	b, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("core: marshal ledger: %w", err)
	}
	n, err := w.Write(append(b, '\n'))
	return int64(n), err
}

// Snapshot serializes the ledger to JSON bytes — WriteTo without the
// writer plumbing, for callers (like a budget ledger embedding per-user
// histories) that want a value they can stash in their own log.
func (lg *Ledger) Snapshot() ([]byte, error) {
	var buf bytes.Buffer
	if _, err := lg.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore replaces the ledger's state with a snapshot previously
// produced by Snapshot (or WriteTo). The accountant's events are
// replayed verbatim, so a restored ledger answers every total exactly
// like the one that was snapshotted.
func (lg *Ledger) Restore(data []byte) error {
	restored, err := ReadLedger(bytes.NewReader(data))
	if err != nil {
		return err
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	lg.acct = restored.acct
	lg.delta = restored.delta
	lg.unprotected = restored.unprotected
	lg.surveys = restored.surveys
	return nil
}

// ReadLedger deserializes a ledger previously written with WriteTo.
func ReadLedger(r io.Reader) (*Ledger, error) {
	var snap ledgerSnapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("core: decode ledger: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("core: unsupported ledger snapshot version %d", snap.Version)
	}
	lg, err := NewLedger(snap.Delta)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	if snap.Unprotected < 0 {
		return nil, fmt.Errorf("core: snapshot has negative unprotected count %d", snap.Unprotected)
	}
	for _, e := range snap.Events {
		if err := lg.acct.Record(e); err != nil {
			return nil, fmt.Errorf("core: snapshot event: %w", err)
		}
	}
	lg.unprotected = snap.Unprotected
	lg.surveys = snap.Surveys
	return lg, nil
}

// SaveFile publishes the ledger at path through
// blockio.WriteFileAtomic (temp file, fsync, rename, directory sync), so
// a crash leaves the previous history or the new one, never a torn file.
func (lg *Ledger) SaveFile(path string) error {
	err := blockio.WriteFileAtomic(path, func(f *os.File) error {
		_, err := lg.WriteTo(f)
		return err
	})
	if err != nil {
		return fmt.Errorf("core: save ledger: %w", err)
	}
	return nil
}

// LoadLedgerFile reads a ledger saved with SaveFile.
func LoadLedgerFile(path string) (*Ledger, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load ledger: %w", err)
	}
	defer f.Close()
	return ReadLedger(f)
}
