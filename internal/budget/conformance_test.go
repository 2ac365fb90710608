package budget

import (
	"path/filepath"
	"strconv"
	"testing"

	"loki/internal/logtest"
)

// ledgerUser plugs the Set's journal into the shared Log conformance
// suite: record i is one charge against worker "i".
type ledgerUser struct{ *Set }

func (u ledgerUser) Put(i int) error {
	_, err := u.Charge(Charge{WorkerID: strconv.Itoa(i), SurveyID: "s", Rho: 0.001})
	return err
}

func (u ledgerUser) Records() []int {
	out := []int{}
	for i := 0; i < 16; i++ {
		if a, _ := u.Peek(strconv.Itoa(i)); a.Charges > 0 {
			out = append(out, i)
		}
	}
	return out
}

func TestLedgerLogConformance(t *testing.T) {
	logtest.Run(t, logtest.User{
		LogFile: func(dir string) string { return filepath.Join(dir, ledgerFile) },
		Open: func(dir string) (logtest.Store, error) {
			s, err := NewSet(SetOptions{Shards: 4, Dir: dir, Config: testConfig()})
			return ledgerUser{s}, err
		},
		// A charge whose fsync failed stays applied in memory: it was
		// never admitted, so the account over-counts until the restart.
		MayOverCount: true,
		Compact: func(st logtest.Store) error {
			s := st.(ledgerUser).Set
			s.led.mu.Lock()
			defer s.led.mu.Unlock()
			s.compactLocked()
			return s.led.err
		},
	})
}
