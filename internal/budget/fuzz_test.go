package budget

import (
	"bytes"
	"math"
	"runtime"
	"testing"
)

// FuzzLedgerRecord checks the binary ledger record three ways. Arbitrary
// bytes never panic the decoder. A binary record that decodes re-encodes
// to the very same bytes: a record has one encoding. And counts are
// checked against the bytes left before anything is sized by them, so a
// five-byte record claiming billions of entries or accounts allocates
// nothing like that.
func FuzzLedgerRecord(f *testing.F) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	f.Add(appendLedgerRecord(nil, []walRecord{
		{Worker: "w", Survey: "s", Rho: 0.25, Unprot: 2},
		{T: walRefund, Worker: "v", Rho: nan, Unprot: -1},
	}))
	f.Add(appendLedgerRecord(nil, []walRecord{{T: walSnapshot, Snapshot: []Account{
		{WorkerID: "ana", Rho: 0.1, Unprotected: 3, Charges: 300, Refunds: 2},
		{WorkerID: "", Rho: math.Copysign(0, -1)},
	}}}))
	f.Add([]byte{ledgerTag, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{ledgerTag, 1, kindSnapshot, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte(`{"worker":"w","rho":0.5}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, err := decodeLedgerRecord(nil, b)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+256*uint64(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), grew)
		}
		if err != nil || b[0] != ledgerTag {
			return // refused, or a JSON line: nothing binary to re-encode
		}
		if again := appendLedgerRecord(nil, recs); !bytes.Equal(again, b) {
			t.Fatalf("decoded record re-encodes to\n%x\nnot\n%x", again, b)
		}
	})
}
